/**
 * @file
 * Core synthesis: maps a CoreConfig onto technology timing and area.
 *
 * For each pipeline region, the synthesizer builds the region's
 * combinational block (core/blocks.hpp), buffers high-fanout nets,
 * slices it into the configured number of stages with the
 * delay-balanced pipeliner, and runs STA under the target library.
 * The core's clock period is the worst region period; its area is the
 * sum of region areas plus the DFF-array cost of the core's storage
 * structures and the complex ALU (pipelined just deep enough to meet
 * the core clock, as a stallable DesignWare unit would be).
 *
 * The bufferized region blocks, the wakeup loop and the complex ALU
 * are no synthesizer's own: they come from the process-wide block
 * table of core/blocks.hpp (regionNetlist() and its siblings), keyed
 * by regionBlockKey(), the configuration fields their builders read,
 * because no builder reads the library. Every synthesizer of the
 * process, whatever its library or STA configuration, times the same
 * netlist at the same address, so a block is built once per process.
 *
 * What depends on the library and the STA configuration is memoized
 * per synthesizer: each block's one propagation, region timings by
 * (block key, stages), and the complex ALU by stage count. A block is
 * propagated once per synthesizer: that one analysis is its one-stage
 * timing and yields the cut delays every deeper stage count reuses. A
 * width sweep therefore times each front-end block once per fetch
 * width and each back-end block once per back-end width, not once per
 * design point. Every table is compute-once and thread-safe, so one
 * synthesizer may serve concurrent synthesize() calls, and synthesizers
 * may run side by side; a value is a pure function of its key, the
 * library and the STA configuration, so sharing never changes a result.
 *
 * Deepening reproduces the paper's methodology: "we synthesize the
 * baseline design and cut the stage which is on the critical path"
 * (Sec. 5.1) — deepen() adds one stage to whichever region currently
 * limits the clock under the *target library*, so organic and silicon
 * cores with the same stage count are cut in different places, as the
 * paper observes in Sec. 5.5.
 */

#ifndef OTFT_CORE_SYNTHESIZER_HPP
#define OTFT_CORE_SYNTHESIZER_HPP

#include <utility>
#include <vector>

#include "arch/config.hpp"
#include "core/blocks.hpp"
#include "liberty/library.hpp"
#include "sta/pipeline.hpp"
#include "sta/sta.hpp"
#include "util/memo.hpp"

namespace otft::core {

/** Timing/area of one synthesized region. */
struct RegionTiming
{
    arch::Region region = arch::Region::Fetch;
    int stages = 1;
    double clockPeriod = 0.0;
    double area = 0.0;
    std::size_t cells = 0;
};

/** Timing/area of a synthesized core. */
struct CoreTiming
{
    /** Minimum core clock period, seconds. */
    double clockPeriod = 0.0;
    /** Maximum frequency, hertz. */
    double frequency = 0.0;
    /** Total area (regions + storage + complex ALU), m^2. */
    double area = 0.0;
    /** The region limiting the clock. */
    arch::Region critical = arch::Region::Fetch;
    /** Stages chosen for the complex ALU to meet the core clock. */
    int complexAluStages = 1;
    /** Per-region detail. */
    std::vector<RegionTiming> regions;
};

/** Synthesizes cores against one library. */
class CoreSynthesizer
{
  public:
    CoreSynthesizer(const liberty::CellLibrary &library,
                    sta::StaConfig sta_config = {});

    /** Synthesize a configuration. Safe to call concurrently. */
    CoreTiming synthesize(const arch::CoreConfig &config);

    /**
     * One step of "cut the critical stage": returns the configuration
     * with one more stage in the region that limits the clock.
     */
    arch::CoreConfig deepen(const arch::CoreConfig &config);

    /**
     * Pipelined (min clock period, area) of the complex ALU at
     * `stages` stages. Safe to call concurrently.
     */
    std::pair<double, double> complexAluTiming(int stages);

    const liberty::CellLibrary &lib() const { return library; }
    const sta::StaConfig &staConfig() const { return staConfig_; }

  private:
    /** A shared comb block and the facts of its one propagation. */
    struct TimedBlock
    {
        /** The block, in the process-wide table of core/blocks.hpp. */
        const netlist::Netlist *netlist = nullptr;
        /** The block timed as one stage. */
        sta::StaResult oneStage;
        /** What the pipeliner cuts it by at every deeper stage count. */
        sta::CombDelays delays;
    };

    /** Propagate a shared comb block once for its TimedBlock. */
    TimedBlock timeBlock(const netlist::Netlist &comb) const;

    /** STA of `block` cut into `stages` stages. */
    sta::StaResult analyzeAt(const TimedBlock &block, int stages) const;

    /** Bufferized combinational block of a region, timed. */
    const TimedBlock &block(arch::Region region,
                            const arch::CoreConfig &config);

    const liberty::CellLibrary &library;
    sta::StaConfig staConfig_;
    sta::StaEngine engine;
    sta::Pipeliner pipeliner;
    Memo<RegionBlockKey, TimedBlock> blockCache;
    Memo<std::pair<RegionBlockKey, int>, RegionTiming> timingCache;
    /** Complex ALU timed block (one entry: it is width-independent). */
    Memo<int, TimedBlock> aluCache;
    /** Complex ALU pipelined (period, area) by stage count. */
    Memo<int, std::pair<double, double>> aluTimingCache;
};

} // namespace otft::core

#endif // OTFT_CORE_SYNTHESIZER_HPP
