#include "liberty/nldm.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace otft::liberty {

NldmTable::NldmTable(std::vector<double> slew_axis,
                     std::vector<double> load_axis,
                     std::vector<double> values)
    : slewAxis_(std::move(slew_axis)), loadAxis_(std::move(load_axis)),
      values_(std::move(values))
{
    if (slewAxis_.size() < 2 || loadAxis_.size() < 2)
        fatal("NldmTable: need at least a 2x2 grid");
    if (values_.size() != slewAxis_.size() * loadAxis_.size())
        fatal("NldmTable: value count does not match axes");
    if (!std::is_sorted(slewAxis_.begin(), slewAxis_.end()) ||
        !std::is_sorted(loadAxis_.begin(), loadAxis_.end()))
        fatal("NldmTable: axes must be ascending");
}

std::size_t
NldmTable::segment(const std::vector<double> &axis, double x)
{
    // Lower cell index such that axis[i] <= x < axis[i+1], clamped so
    // out-of-range x extrapolates from the edge cell.
    const auto it = std::upper_bound(axis.begin(), axis.end(), x);
    std::size_t hi = static_cast<std::size_t>(it - axis.begin());
    hi = std::clamp<std::size_t>(hi, 1, axis.size() - 1);
    return hi - 1;
}

NldmPoint
NldmTable::locate(double slew, double load) const
{
    if (values_.empty())
        fatal("NldmTable::lookup on an empty table");

    NldmPoint p;
    p.i = segment(slewAxis_, slew);
    p.j = segment(loadAxis_, load);
    const double s0 = slewAxis_[p.i], s1 = slewAxis_[p.i + 1];
    const double l0 = loadAxis_[p.j], l1 = loadAxis_[p.j + 1];
    p.ts = (slew - s0) / (s1 - s0);
    p.tl = (load - l0) / (l1 - l0);
    return p;
}

} // namespace otft::liberty
