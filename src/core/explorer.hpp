/**
 * @file
 * Architecture exploration: the paper's evaluation experiments
 * (Sec. 5) as reusable drivers.
 *
 * Performance is IPC x clock frequency (paper Sec. 5.3/5.4); IPC
 * comes from the cycle-level core model on the seven workloads, and
 * frequency/area from the core synthesizer under a given technology
 * library. Depth sweeps deepen the baseline by repeatedly cutting the
 * critical stage under each library; width sweeps cover the paper's
 * front-end 1-6 x back-end 3-7 grid, evaluating the points in
 * parallel through the explorer's one synthesizer so that each region
 * block is timed once per sweep, not once per design point (and
 * built once per process, see core/blocks.hpp).
 */

#ifndef OTFT_CORE_EXPLORER_HPP
#define OTFT_CORE_EXPLORER_HPP

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "arch/core.hpp"
#include "arch/front_end.hpp"
#include "core/synthesizer.hpp"
#include "util/memo.hpp"
#include "workload/trace.hpp"

namespace otft::core {

/** One synthesized + simulated design point. */
struct DesignPoint
{
    arch::CoreConfig config;
    CoreTiming timing;
    /** IPC per workload (paperWorkloads() order). */
    std::vector<double> ipc;
    /** Mean IPC over workloads. */
    double meanIpc = 0.0;
    /** Mean performance = mean IPC x frequency, 1/s. */
    double performance = 0.0;
};

/** Result of a depth sweep (Fig. 11 / Fig. 15b). */
struct DepthSweep
{
    std::string libraryName;
    std::vector<DesignPoint> points; // one per total stage count
    std::vector<std::string> workloadNames;
};

/**
 * Index of the first strict maximum of `values`: a later value takes
 * over only when it is strictly greater, so a tie keeps the earlier
 * one. The depth-optimum rule of Fig. 11 and of its yield variant
 * (bestDepths()). Fatal when `values` is empty.
 */
std::size_t firstMaximum(const std::vector<double> &values);

/** Fig. 11 headline: the best depth of a depth sweep. */
struct DepthOptimum
{
    /** Total stages of the point with the highest performance. */
    int stages = 0;
    /** Its performance over the first (baseline) point's. */
    double gain = 0.0;
};

/**
 * The optimum of a depth sweep: the first strict maximum of
 * `performance`, so of two equal points the shallower wins. Fatal
 * when the sweep is empty.
 */
DepthOptimum optimalDepth(const DepthSweep &sweep);

/**
 * Fig. 15(b) headline: the frequency of the sweep's `stages`-deep
 * point over the first (baseline) point's; nullopt when the sweep
 * has no point that deep.
 */
std::optional<double> frequencyGainAt(const DepthSweep &sweep,
                                      int stages);

/** Result of a width sweep (Fig. 13 / Fig. 14). */
struct WidthSweep
{
    std::string libraryName;
    /** points[be - beMin][fe - feMin]. */
    std::vector<std::vector<DesignPoint>> points;
    int feMin = 1, feMax = 6;
    int beMin = 3, beMax = 7;
};

/** Fig. 13 headline: the best width of a width sweep, M[be][fe]. */
struct WidthOptimum
{
    int backEnd = 0;
    int frontEnd = 0;
    /** The grid's highest performance, which the optimum is judged
     *  against (and Fig. 13 normalizes by). */
    double maxPerformance = 0.0;
};

/**
 * The optimum of a width sweep: the last point in (be, fe) order
 * whose performance over the grid maximum is >= 0.9999, so of points
 * within 1e-4 of the maximum the later one wins. Fields stay 0 when
 * no point qualifies (a grid whose maximum is 0).
 */
WidthOptimum optimalWidth(const WidthSweep &sweep);

/**
 * Fig. 13's back-end cost: performance at back-end width beMax over
 * performance at beMin, minus 1, in front-end column `fe` (the
 * paper's back-end 3 -> 7 change). Fatal when `fe` is off the grid.
 */
double backEndChange(const WidthSweep &sweep, int fe);

/** One point of an ALU depth sweep (Fig. 12 / Fig. 15a). */
struct AluPoint
{
    int stages = 1;
    double frequency = 0.0;
    double area = 0.0;
};

/**
 * Fig. 12 headline: the frequency knee of an ALU depth sweep, the
 * stage count of the first point whose step to the next point gains
 * under 2% frequency per added stage, (f_next / f - 1) /
 * (stages_next - stages) < 0.02; nullopt when no step does.
 */
std::optional<int> frequencyKnee(const std::vector<AluPoint> &points);

/** Exploration controls. */
struct ExplorerConfig
{
    /** Instructions simulated per IPC measurement. */
    std::uint64_t instructions = 100000;
    /** Trace seed. */
    std::uint64_t seed = 7;
    /** STA configuration (wire on/off for Fig. 15). */
    sta::StaConfig sta = {};
};

/**
 * Grid slot `be_i * n_fe + fe_i` of the k-th point a width sweep
 * starts, on a grid of n_fe fetch widths x n_be back-end widths.
 * Points start in wrapped-diagonal order: with b = min(n_fe, n_be)
 * and a = max(n_fe, n_be), point k takes short-axis index s = k % b
 * and long-axis index (s + k / b) % a. Every b consecutive points
 * from a multiple of b on then use b distinct fetch widths and b
 * distinct back-end widths, so points started together synthesize
 * distinct blocks instead of waiting on one.
 */
std::size_t widthSweepSlot(std::size_t k, std::size_t n_fe,
                           std::size_t n_be);

/** The exploration driver bound to one technology library. */
class ArchExplorer
{
  public:
    ArchExplorer(const liberty::CellLibrary &library,
                 ExplorerConfig config = {});

    /**
     * Synthesize + simulate one configuration. Safe to call
     * concurrently: every call synthesizes through the one shared
     * synthesizer, whose memo tables are compute-once.
     *
     * Results are memoized in the process-wide result cache, in two
     * tiers: `explorer.timing` (keyed on the library content hash,
     * the STA configuration and the full core configuration) and
     * `explorer.ipc` (keyed on the core configuration, instruction
     * count and seed, with no technology input, so one simulation
     * serves every library). Hits are returned verbatim, so sweeps
     * are bit-identical with the cache cold, warm or off
     * (`ResultCache::setEnabled(false)`, `OTFT_CACHE=0`).
     * measureIpc() itself never caches.
     */
    DesignPoint evaluate(const arch::CoreConfig &config);

    /**
     * The paper's depth sweep: start at the 9-stage baseline and cut
     * the critical stage until `max_stages` total stages.
     */
    DepthSweep depthSweep(int max_stages = 15);

    /**
     * The paper's width sweep at baseline depth. Points start in the
     * wrapped-diagonal order of widthSweepSlot(); the result is in
     * grid order whatever the order or job count.
     */
    WidthSweep widthSweep(int fe_min = 1, int fe_max = 6,
                          int be_min = 3, int be_max = 7);

    /** ALU pipeline depth sweep (complex ALU standalone, Fig. 12). */
    std::vector<AluPoint> aluDepthSweep(const std::vector<int> &stages);

    /**
     * IPC of a configuration on every paper workload (uncached). Each
     * core reads the explorer's shared front-end stream of its
     * workload, so the sweeps generate and predict each workload once.
     */
    std::vector<double> measureIpc(const arch::CoreConfig &config);

    CoreSynthesizer &synthesizer() { return synth; }

  private:
    /** The front-end stream of workloads[index] at `predictor_bits`,
     *  created on first use. */
    arch::FrontEndStream &stream(std::size_t index, int predictor_bits);

    const liberty::CellLibrary &library;
    ExplorerConfig config_;
    CoreSynthesizer synth;
    std::vector<workload::BenchmarkProfile> workloads;
    /** Keyed by (workload index, predictorBits); the seed is
     *  config_.seed. */
    Memo<std::pair<std::size_t, int>, std::unique_ptr<arch::FrontEndStream>>
        streams;
    /** library.contentHash(), computed once at construction. */
    std::uint64_t libraryHash = 0;
};

} // namespace otft::core

#endif // OTFT_CORE_EXPLORER_HPP
