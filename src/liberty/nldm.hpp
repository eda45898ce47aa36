/**
 * @file
 * Non-linear delay model (NLDM) look-up tables.
 *
 * The paper characterizes its organic library with NLDM (Sec. 4.4): a
 * voltage-based model indexed by input transition time and output
 * capacitive load, with resistive/inductive interconnect effects
 * neglected — "suitable for both silicon and organic technologies."
 * Tables are bilinear inside the characterized grid and extrapolate
 * linearly outside it, as synthesis tools do.
 */

#ifndef OTFT_LIBERTY_NLDM_HPP
#define OTFT_LIBERTY_NLDM_HPP

#include <cstddef>
#include <vector>

namespace otft::liberty {

/**
 * An operating point located on a table's axes: the lower grid cell
 * (i along slew, j along load) and the fractional position inside it
 * (ts, tl; outside [0, 1] when extrapolating). Valid for every table
 * with the same axes as the one that located it.
 */
struct NldmPoint
{
    std::size_t i = 0;
    std::size_t j = 0;
    double ts = 0.0;
    double tl = 0.0;
};

/** A 2-D NLDM table over (input slew, output load). */
class NldmTable
{
  public:
    NldmTable() = default;

    /**
     * @param slew_axis input transition times, ascending, seconds
     * @param load_axis output loads, ascending, farads
     * @param values row-major [slew][load]
     */
    NldmTable(std::vector<double> slew_axis,
              std::vector<double> load_axis,
              std::vector<double> values);

    /** Bilinear lookup with linear extrapolation outside the grid. */
    double lookup(double slew, double load) const
    {
        return at(locate(slew, load));
    }

    /**
     * The axis search half of lookup(): where (slew, load) falls on
     * this table's axes. Fatal on an empty table.
     */
    NldmPoint locate(double slew, double load) const;

    /**
     * The interpolation half of lookup(), with the same arithmetic in
     * the same order. `p` must come from locate() on a table with the
     * same axes (the tables of one TimingArc share them), so one
     * locate serves several tables bit-exactly.
     */
    double
    at(const NldmPoint &p) const
    {
        const std::size_t n_load = loadAxis_.size();
        const double v00 = values_[p.i * n_load + p.j];
        const double v01 = values_[p.i * n_load + p.j + 1];
        const double v10 = values_[(p.i + 1) * n_load + p.j];
        const double v11 = values_[(p.i + 1) * n_load + p.j + 1];

        // Bilinear; ts/tl may lie outside [0,1], giving linear
        // extrapolation from the edge cell.
        const double a = v00 + (v01 - v00) * p.tl;
        const double b = v10 + (v11 - v10) * p.tl;
        return a + (b - a) * p.ts;
    }

    bool empty() const { return values_.empty(); }

    const std::vector<double> &slewAxis() const { return slewAxis_; }
    const std::vector<double> &loadAxis() const { return loadAxis_; }
    const std::vector<double> &values() const { return values_; }

    /**
     * Build a table from an analytic model d(slew, load), sampling it
     * on the given axes. Used for the constructed silicon library.
     */
    template <typename Fn>
    static NldmTable
    fromModel(const std::vector<double> &slew_axis,
              const std::vector<double> &load_axis, Fn &&model)
    {
        std::vector<double> values;
        values.reserve(slew_axis.size() * load_axis.size());
        for (double s : slew_axis)
            for (double l : load_axis)
                values.push_back(model(s, l));
        return NldmTable(slew_axis, load_axis, std::move(values));
    }

  private:
    /** Index of the lower axis cell for x, clamped to [0, n-2]. */
    static std::size_t segment(const std::vector<double> &axis, double x);

    std::vector<double> slewAxis_;
    std::vector<double> loadAxis_;
    std::vector<double> values_;
};

} // namespace otft::liberty

#endif // OTFT_LIBERTY_NLDM_HPP
