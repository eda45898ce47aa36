#include "liberty/mc_characterizer.hpp"

#include <algorithm>
#include <cmath>

#include "device/variation.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/stats_registry.hpp"
#include "util/trace.hpp"

namespace otft::liberty {

namespace {

/** Mean and sample standard deviation (n-1) of per-sample values. */
struct Moments
{
    double mean = 0.0;
    double sigma = 0.0;
};

Moments
moments(const std::vector<double> &xs)
{
    Moments m;
    if (xs.empty())
        return m;
    m.mean = mean(xs);
    if (xs.size() < 2)
        return m;
    double sq = 0.0;
    for (double x : xs) {
        const double d = x - m.mean;
        sq += d * d;
    }
    m.sigma = std::sqrt(sq / static_cast<double>(xs.size() - 1));
    return m;
}

/** Which corner of the distribution a library represents. */
enum class Corner { Mean, Slow, Fast };

/**
 * Derate one mean/sigma pair by `cornerSigma`. Slow adds, fast
 * subtracts; fast is floored at 1% of the mean so a huge sigma can
 * never produce a non-physical zero or negative delay, and the floor
 * keeps fast <= mean by construction.
 */
double
derate(double mean, double sigma, Corner corner)
{
    switch (corner) {
    case Corner::Mean:
        return mean;
    case Corner::Slow:
        return mean + cornerSigma * sigma;
    case Corner::Fast:
        return std::max(mean - cornerSigma * sigma, 0.01 * mean);
    }
    return mean;
}

/** Entry-wise mean/sigma tables over per-sample NLDM tables. */
void
tableMoments(const std::vector<const NldmTable *> &tables,
             NldmTable &mean_out, NldmTable &sigma_out)
{
    const NldmTable &first = *tables.front();
    const std::size_t n = first.values().size();
    for (const NldmTable *t : tables)
        if (t->values().size() != n ||
            t->slewAxis() != first.slewAxis() ||
            t->loadAxis() != first.loadAxis())
            fatal("mc: sample tables disagree on the grid (axes must "
                  "be sample-invariant)");
    std::vector<double> means(n), sigmas(n), column(tables.size());
    for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t s = 0; s < tables.size(); ++s)
            column[s] = tables[s]->values()[k];
        const Moments m = moments(column);
        means[k] = m.mean;
        sigmas[k] = m.sigma;
    }
    mean_out = NldmTable(first.slewAxis(), first.loadAxis(),
                         std::move(means));
    sigma_out = NldmTable(first.slewAxis(), first.loadAxis(),
                          std::move(sigmas));
}

/** Derated table from mean/sigma tables. */
NldmTable
derateTable(const NldmTable &mean, const NldmTable &sigma, Corner corner)
{
    std::vector<double> values(mean.values().size());
    for (std::size_t k = 0; k < values.size(); ++k)
        values[k] = derate(mean.values()[k], sigma.values()[k], corner);
    return NldmTable(mean.slewAxis(), mean.loadAxis(),
                     std::move(values));
}

/** Scalar field across samples, e.g. leakage. */
Moments
scalarMoments(const std::vector<StdCell> &samples,
              double (*get)(const StdCell &))
{
    std::vector<double> xs;
    xs.reserve(samples.size());
    for (const StdCell &cell : samples)
        xs.push_back(get(cell));
    return moments(xs);
}

/**
 * Build one corner cell from the reduced statistics. `shape` supplies
 * everything that does not vary across process samples: the name,
 * pins, area, input cap and clock-pin cap.
 */
StdCell
cornerCell(const StdCell &shape, const CellStats &stats, Corner corner)
{
    StdCell cell;
    cell.name = shape.name;
    cell.fanIn = shape.fanIn;
    cell.isSequential = shape.isSequential;
    cell.area = shape.area;
    cell.inputCap = shape.inputCap;
    cell.leakage = derate(stats.leakageMean, stats.leakageSigma, corner);
    if (cell.isSequential) {
        cell.flop.clkToQ =
            derate(stats.clkToQMean, stats.clkToQSigma, corner);
        cell.flop.setup = derate(stats.setupMean, stats.setupSigma, corner);
        cell.flop.hold = derate(stats.holdMean, stats.holdSigma, corner);
        cell.flop.clockPinCap = shape.flop.clockPinCap;
    }
    for (const ArcStats &arc_stats : stats.arcs) {
        TimingArc arc;
        arc.fromPin = arc_stats.fromPin;
        for (int sense = 0; sense < 2; ++sense) {
            arc.delay[sense] = derateTable(arc_stats.delayMean[sense],
                                           arc_stats.delaySigma[sense],
                                           corner);
            arc.outputSlew[sense] = derateTable(
                arc_stats.slewMean[sense], arc_stats.slewSigma[sense],
                corner);
        }
        cell.arcs.push_back(std::move(arc));
    }
    return cell;
}

/** Add the three corner cells of one cell's statistics. */
void
addCornerCells(StatLibrary &stat, const StdCell &shape,
               const CellStats &stats)
{
    stat.mean.addCell(cornerCell(shape, stats, Corner::Mean));
    stat.slow.addCell(cornerCell(shape, stats, Corner::Slow));
    stat.fast.addCell(cornerCell(shape, stats, Corner::Fast));
}

/** Reduce per-sample cells to the distribution summary. */
CellStats
reduceCell(const std::vector<StdCell> &samples)
{
    const StdCell &first = samples.front();
    CellStats stats;
    stats.name = first.name;
    const Moments leak = scalarMoments(
        samples, [](const StdCell &c) { return c.leakage; });
    stats.leakageMean = leak.mean;
    stats.leakageSigma = leak.sigma;
    if (first.isSequential) {
        const Moments ckq = scalarMoments(
            samples, [](const StdCell &c) { return c.flop.clkToQ; });
        const Moments setup = scalarMoments(
            samples, [](const StdCell &c) { return c.flop.setup; });
        const Moments hold = scalarMoments(
            samples, [](const StdCell &c) { return c.flop.hold; });
        stats.clkToQMean = ckq.mean;
        stats.clkToQSigma = ckq.sigma;
        stats.setupMean = setup.mean;
        stats.setupSigma = setup.sigma;
        stats.holdMean = hold.mean;
        stats.holdSigma = hold.sigma;
    }
    for (std::size_t a = 0; a < first.arcs.size(); ++a) {
        ArcStats arc;
        arc.fromPin = first.arcs[a].fromPin;
        for (int sense = 0; sense < 2; ++sense) {
            std::vector<const NldmTable *> delays, slews;
            for (const StdCell &cell : samples) {
                if (cell.arcs.size() != first.arcs.size())
                    fatal("mc: sample arc counts disagree for ",
                          first.name);
                delays.push_back(&cell.arcs[a].delay[sense]);
                slews.push_back(&cell.arcs[a].outputSlew[sense]);
            }
            tableMoments(delays, arc.delayMean[sense],
                         arc.delaySigma[sense]);
            tableMoments(slews, arc.slewMean[sense],
                         arc.slewSigma[sense]);
        }
        stats.arcs.push_back(std::move(arc));
    }
    return stats;
}

/** The Monte Carlo variation widths. */
device::VariationConfig
mcVariation()
{
    device::VariationConfig v;
    // Per-device: the published within-sample spread (defaults).
    // Die-to-die: deposition-run corners move VT and mobility
    // farther; these widths put the 3-sigma die at roughly the
    // batch-corner values the VSS-retuning extension exercises.
    v.dieVtSigma = 0.15;
    v.dieMobilityLnSigma = 0.10;
    return v;
}

} // namespace

CharacterizerConfig
McConfig::mcDefaultGrid()
{
    CharacterizerConfig grid;
    grid.settleScale = 1.5;
    return grid;
}

McCharacterizer::McCharacterizer(McConfig config)
    : config_(std::move(config))
{
    if (config_.samples < 1)
        fatal("mc: samples must be >= 1, got ", config_.samples);
    if (config_.roster.empty())
        fatal("mc: empty cell roster");
}

device::Level61Params
McCharacterizer::sampleParams(int sample, const std::string &cell) const
{
    const device::VariationModel model(mcVariation());
    // Substream tree: mc -> sample index -> {die, cell/<name>}. The
    // die component is shared by every cell of a sample; the device
    // component is independent per cell instance. All draws are pure
    // functions of (seed, sample, cell), never of evaluation order.
    StreamRng root(config_.seed, "mc");
    const StreamRng sample_stream =
        root.substream(static_cast<std::uint64_t>(sample));
    StreamRng die_rng = sample_stream.substream("die");
    const device::DieVariation die = model.sampleDie(die_rng);
    StreamRng device_rng = sample_stream.substream("cell/" + cell);
    return model.sample(device::Level61Params{}, die, device_rng);
}

StatLibrary
McCharacterizer::run() const
{
    static stats::Counter &stat_samples = stats::counter(
        "mc.samples.characterized",
        "Monte Carlo process samples characterized");
    static stats::Counter &stat_cells = stats::counter(
        "mc.cells.characterized",
        "per-sample cell characterizations (samples x roster)");
    OTFT_TRACE_SCOPE("liberty.mc.run");
    stat_samples += static_cast<std::int64_t>(config_.samples);

    const std::size_t n_cells = config_.roster.size();
    const std::size_t n_tasks =
        static_cast<std::size_t>(config_.samples) * n_cells;

    // One task per (sample, cell) pair: maximal outer parallelism
    // with deterministic slot order. Each task characterizes through
    // its own Characterizer bound to the sampled device parameters;
    // the combinational arc points memoize in the result cache under
    // keys that include those parameters, so a same-seed re-run in
    // the same process, or with a shared --cache-dir, replays them.
    // The flop transients and the leakage DC solves are not cached
    // and always re-run. Inside a worker the per-arc grid maps run
    // inline, so the two levels never deadlock.
    auto flat = parallel::orderedMap<StdCell>(
        n_tasks, [&](std::size_t k) {
            const int sample = static_cast<int>(k / n_cells);
            const std::string &name = config_.roster[k % n_cells];
            OTFT_TRACE_SCOPE("liberty.mc.sample_cell");
            trace::Scope diag_ctx(trace::labelled, [&] {
                return "mc.sample" + std::to_string(sample) + "." + name;
            });
            ++stat_cells;
            cells::CellFactory factory(sampleParams(sample, name),
                                       cells::CellSizing{},
                                       cells::SupplyConfig{});
            const Characterizer chr(std::move(factory), config_.grid);
            return name == "dff" ? chr.characterizeFlop()
                                 : chr.characterizeCombinational(name);
        });

    // Reduce each roster cell across samples (two-pass, in sample
    // order — deterministic at any job count).
    const double vdd = cells::SupplyConfig{}.vdd;
    StatLibrary stat{CellLibrary("organic_mc_mean", vdd),
                     CellLibrary("organic_mc_slow", vdd),
                     CellLibrary("organic_mc_fast", vdd),
                     {},
                     config_.samples,
                     config_.seed};
    for (std::size_t c = 0; c < n_cells; ++c) {
        std::vector<StdCell> samples;
        samples.reserve(static_cast<std::size_t>(config_.samples));
        for (int s = 0; s < config_.samples; ++s)
            samples.push_back(
                flat[static_cast<std::size_t>(s) * n_cells + c]);
        CellStats cell_stats = reduceCell(samples);
        addCornerCells(stat, samples.front(), cell_stats);
        stat.cells.push_back(std::move(cell_stats));
    }
    applyOrganicTechnology(stat.mean, config_.grid);
    applyOrganicTechnology(stat.slow, config_.grid);
    applyOrganicTechnology(stat.fast, config_.grid);
    return stat;
}

double
CellStats::meanDelaySigmaFraction() const
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const ArcStats &arc : arcs) {
        for (int sense = 0; sense < 2; ++sense) {
            const auto &means = arc.delayMean[sense].values();
            const auto &sigmas = arc.delaySigma[sense].values();
            for (std::size_t k = 0; k < means.size(); ++k) {
                if (means[k] > 0.0) {
                    sum += sigmas[k] / means[k];
                    ++n;
                }
            }
        }
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

StatLibrary
scaledCorners(const CellLibrary &base, double sigma_fraction,
              const std::string &base_name)
{
    if (sigma_fraction < 0.0)
        fatal("scaledCorners: sigma fraction must be >= 0");
    const std::string name =
        base_name.empty() ? base.name() + "_mc" : base_name;
    StatLibrary stat{CellLibrary(name + "_mean", base.vdd()),
                     CellLibrary(name + "_slow", base.vdd()),
                     CellLibrary(name + "_fast", base.vdd()),
                     {},
                     0,
                     0};

    const auto sigma = [&](double v) {
        return sigma_fraction * std::abs(v);
    };
    const auto sigma_table = [&](const NldmTable &t) {
        std::vector<double> values(t.values().size());
        for (std::size_t k = 0; k < values.size(); ++k)
            values[k] = sigma(t.values()[k]);
        return NldmTable(t.slewAxis(), t.loadAxis(), std::move(values));
    };

    for (const std::string &cell_name : base.cellNames()) {
        const StdCell &src = base.cell(cell_name);
        CellStats cell_stats;
        cell_stats.name = src.name;
        cell_stats.leakageMean = src.leakage;
        cell_stats.leakageSigma = sigma(src.leakage);
        if (src.isSequential) {
            cell_stats.clkToQMean = src.flop.clkToQ;
            cell_stats.clkToQSigma = sigma(src.flop.clkToQ);
            cell_stats.setupMean = src.flop.setup;
            cell_stats.setupSigma = sigma(src.flop.setup);
            cell_stats.holdMean = src.flop.hold;
            cell_stats.holdSigma = sigma(src.flop.hold);
        }
        for (const TimingArc &src_arc : src.arcs) {
            ArcStats arc;
            arc.fromPin = src_arc.fromPin;
            for (int sense = 0; sense < 2; ++sense) {
                arc.delayMean[sense] = src_arc.delay[sense];
                arc.delaySigma[sense] = sigma_table(src_arc.delay[sense]);
                arc.slewMean[sense] = src_arc.outputSlew[sense];
                arc.slewSigma[sense] =
                    sigma_table(src_arc.outputSlew[sense]);
            }
            cell_stats.arcs.push_back(std::move(arc));
        }
        addCornerCells(stat, src, cell_stats);
        stat.cells.push_back(std::move(cell_stats));
    }
    for (CellLibrary *lib : {&stat.mean, &stat.slow, &stat.fast}) {
        lib->wire() = base.wire();
        lib->setDefaultSlew(base.defaultSlew());
        lib->setClockMargin(base.clockMargin());
    }
    return stat;
}

std::string
validateStatLibrary(const CellLibrary &mean, const CellLibrary &slow,
                    const CellLibrary &fast)
{
    const auto check_tables = [](const NldmTable &s, const NldmTable &m,
                                 const NldmTable &f,
                                 const std::string &what) {
        if (s.values().size() != m.values().size() ||
            f.values().size() != m.values().size())
            return what + ": corner table sizes disagree";
        for (std::size_t k = 0; k < m.values().size(); ++k) {
            const double sv = s.values()[k];
            const double mv = m.values()[k];
            const double fv = f.values()[k];
            if (!std::isfinite(sv) || !std::isfinite(mv) ||
                !std::isfinite(fv))
                return what + ": non-finite entry";
            if (sv < mv || mv < fv)
                return what + ": deration not monotone (slow " +
                       std::to_string(sv) + " mean " +
                       std::to_string(mv) + " fast " +
                       std::to_string(fv) + ")";
        }
        return std::string();
    };

    for (const std::string &name : mean.cellNames()) {
        if (!slow.hasCell(name) || !fast.hasCell(name))
            return "cell " + name + " missing from a corner";
        const StdCell &m = mean.cell(name);
        const StdCell &s = slow.cell(name);
        const StdCell &f = fast.cell(name);
        if (s.leakage < m.leakage || m.leakage < f.leakage)
            return "cell " + name + ": leakage deration not monotone";
        if (m.isSequential) {
            if (s.flop.clkToQ < m.flop.clkToQ ||
                m.flop.clkToQ < f.flop.clkToQ)
                return "cell " + name +
                       ": clk->Q deration not monotone";
            if (s.flop.setup < m.flop.setup ||
                m.flop.setup < f.flop.setup)
                return "cell " + name +
                       ": setup deration not monotone";
        }
        if (s.arcs.size() != m.arcs.size() ||
            f.arcs.size() != m.arcs.size())
            return "cell " + name + ": corner arc counts disagree";
        for (std::size_t a = 0; a < m.arcs.size(); ++a) {
            for (int sense = 0; sense < 2; ++sense) {
                std::string err = check_tables(
                    s.arcs[a].delay[sense], m.arcs[a].delay[sense],
                    f.arcs[a].delay[sense],
                    name + " arc " + m.arcs[a].fromPin + " delay");
                if (!err.empty())
                    return err;
                err = check_tables(
                    s.arcs[a].outputSlew[sense],
                    m.arcs[a].outputSlew[sense],
                    f.arcs[a].outputSlew[sense],
                    name + " arc " + m.arcs[a].fromPin + " slew");
                if (!err.empty())
                    return err;
            }
        }
    }
    return std::string();
}

} // namespace otft::liberty
