#include "liberty/characterizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "circuit/dc.hpp"
#include "circuit/transient.hpp"
#include "liberty/serialize.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/result_cache.hpp"
#include "util/stats_registry.hpp"
#include "util/trace.hpp"

namespace otft::liberty {

namespace {

/**
 * Slew thresholds as fractions of the swing: transition times are
 * measured 20-80 %.
 */
constexpr double slewLow = 0.2;
constexpr double slewHigh = 0.8;

/** The DFF testbench's CK rising edge is centred here, seconds. */
constexpr double flopClock = 2e-3;
/** Edge time of the DFF testbench's CK and D ramps, seconds. */
constexpr double flopEdge = 6e-6;

/** The six-cell library roster. */
const char *const combinationalNames[] = {"inv", "nand2", "nand3",
                                          "nor2", "nor3"};

int
fanInOf(const std::string &name)
{
    if (name == "inv")
        return 1;
    if (name == "nand2" || name == "nor2")
        return 2;
    if (name == "nand3" || name == "nor3")
        return 3;
    fatal("Characterizer: unknown cell ", name);
}

/**
 * Hash everything outside the (cell, pin, slew, load) coordinates
 * that can change a measurement: device model, sizing, supply,
 * characterization settings, and the solver configuration. Each
 * caller prepends its own versioned salt; bump that salt when the
 * producing algorithm changes in a result-affecting way.
 */
void
hashMeasurementContext(cache::KeyHasher &h,
                       const cells::CellFactory &factory,
                       const CharacterizerConfig &cfg,
                       const circuit::TransientConfig &tran)
{
    const device::Level61Params &p = factory.params();
    h.add(p.vt0).add(p.vdsRef).add(p.dibl).add(p.diblVmax);
    h.add(p.u0).add(p.gamma).add(p.vaa).add(p.ss);
    h.add(p.alphaSat).add(p.lambda).add(p.iOff);

    const cells::CellSizing &s = factory.sizing();
    h.add(s.l).add(s.wDrive).add(s.wLoad);
    h.add(s.wShiftDrive).add(s.wShiftLoad).add(s.routingFactor);

    const cells::SupplyConfig &v = factory.supply();
    h.add(v.vdd).add(v.vss);

    h.add(cfg.dt).add(cfg.settleScale);

    h.add(tran.dt).add(tran.tStop).add(tran.fixedStep);
    h.add(tran.lteTol).add(tran.dtMin).add(tran.dtMax);
    const circuit::NewtonConfig &n = tran.newton;
    h.add(n.gmin).add(n.maxIterations).add(n.tolerance).add(n.maxStep);
    h.add(n.chord).add(n.chordRefreshRatio).add(n.singularGminBoost);
}

} // namespace

cells::BuiltCell
Characterizer::instantiate(const std::string &name, double load_cap) const
{
    if (name == "inv")
        return factory.inverter(cells::InverterKind::PseudoE, load_cap);
    if (name == "nand2")
        return factory.nand(2, load_cap);
    if (name == "nand3")
        return factory.nand(3, load_cap);
    if (name == "nor2")
        return factory.nor(2, load_cap);
    if (name == "nor3")
        return factory.nor(3, load_cap);
    if (name == "dff")
        return factory.dff(load_cap);
    fatal("Characterizer: unknown cell ", name);
}

Characterizer::ArcPoint
Characterizer::measurePoint(const std::string &name, int pin,
                            double slew, double load_cap) const
{
    static stats::Counter &stat_points = stats::counter(
        "liberty.points.measured",
        "NLDM grid points measured (one transient each)");
    OTFT_TRACE_SCOPE("liberty.point.measure");

    // Aggregate this point's solver telemetry under its arc.
    trace::Scope diag_ctx(trace::labelled, [&] {
        return "liberty." + name + ".pin" + std::to_string(pin);
    });

    const double vdd = factory.supply().vdd;

    // Ramp time for the requested 20-80% transition time.
    const double t_edge = slew / (slewHigh - slewLow);
    // Settling window: generous relative to the slowest organic arcs,
    // and scaled up for heavy loads (a 16x fanout NOR rise can take
    // tens of milliseconds through the series pull-up).
    const double load_mult = load_cap / factory.inputCap();
    const double settle =
        config_.settleScale *
        std::max(8.0 * t_edge, 0.4e-3 * (1.0 + 0.5 * load_mult));
    const double t1 = 15e-6;
    const double t2 = t1 + t_edge + settle;

    circuit::TransientConfig config = config_.transient;
    config.dt =
        std::min(config_.dt * 50.0, std::max(config_.dt, t_edge / 16.0));
    config.tStop = t2 + t_edge + settle;

    // Memoized arc point: the key covers every input of the
    // measurement, so a hit is the exact result a cold run produces.
    cache::KeyHasher arc_key;
    arc_key.add("arcpoint-v4").add(name).add(pin).add(slew);
    arc_key.add(load_cap);
    hashMeasurementContext(arc_key, factory, config_, config);
    const std::uint64_t arc_digest = arc_key.digest();
    ArcPoint point;
    std::vector<double> payload;
    if (cache::lookup("liberty.arcpoint", arc_digest, payload) &&
        payload.size() == 4) {
        point.delayFall = payload[0];
        point.delayRise = payload[1];
        point.slewFall = payload[2];
        point.slewRise = payload[3];
        return point;
    }
    ++stat_points;

    cells::BuiltCell cell = instantiate(name, load_cap);
    // Sensitize the side inputs: NAND side pins high, NOR side pins
    // low, so the output follows (inverted) the driven pin.
    const bool is_nor = name.rfind("nor", 0) == 0;
    const double side = is_nor ? 0.0 : vdd;
    for (std::size_t i = 0; i < cell.inputSources.size(); ++i) {
        if (static_cast<int>(i) != pin)
            cell.ckt.setSourceWave(cell.inputSources[i],
                                   circuit::Pwl::constant(side));
    }
    cell.ckt.setSourceWave(
        cell.inputSources[static_cast<std::size_t>(pin)],
        circuit::Pwl::points({0.0, t1, t1 + t_edge, t2, t2 + t_edge},
                             {0.0, 0.0, vdd, vdd, 0.0}));

    // Every value the point reads, from a run or from a prefix of one;
    // a crossing the traces do not (yet) hold reads as -1.
    const auto measure = [&](const circuit::Trace &in,
                             const circuit::Trace &out) {
        // Settled output levels define the measured swing.
        const double v_hi = out.value.front();
        const double v_lo = out.at(t2 - 0.05 * settle);

        // Delay = input 50% crossing to output 50% crossing. The output
        // crossing is searched from its edge start (not from the input
        // reference): a sample whose switching threshold sits past the
        // 50% mark — routine under Monte Carlo VT shifts — completes
        // the output transition at a slow slew *before* the input
        // reference crossing, which is a zero-delay arc, not a
        // failure. Nominal arcs cross after the reference, so their
        // measured values are unchanged; early crossings clamp to zero.
        const auto delay = [&](bool in_rising, bool out_rising,
                               double in_from, double out_from) {
            const double t_in =
                in.firstCrossing(0.5 * vdd, in_rising, in_from);
            const double t_out = out.firstCrossing(0.5 * (v_lo + v_hi),
                                                   out_rising, out_from);
            if (t_in < 0.0 || t_out < 0.0)
                return -1.0;
            return std::max(t_out - t_in, 0.0);
        };
        ArcPoint p;
        p.delayFall = delay(true, false, 0.0, t1);
        p.delayRise = delay(false, true, t2, t2);
        p.slewFall = circuit::measureSlew(out, v_lo, v_hi, slewLow,
                                          slewHigh, false, t1);
        p.slewRise = circuit::measureSlew(out, v_lo, v_hi, slewLow,
                                          slewHigh, true, t2);
        return p;
    };
    const auto complete = [](const ArcPoint &p) {
        return p.delayFall >= 0.0 && p.delayRise >= 0.0 &&
               p.slewFall >= 0.0 && p.slewRise >= 0.0;
    };

    // End the run once nothing it reads can change. Each value is the
    // first crossing of a fixed level after a fixed time (or a sample
    // before t2), so a prefix holding all of them measures exactly what
    // the full run would. The last to arrive is the input's falling
    // 50 % crossing (done by t2 + t_edge) or the output's rising 80 %
    // one; at the first sample past both, the prefix is measured once,
    // and the run stops if that measurement is complete. Otherwise it
    // runs on to tStop as before.
    const circuit::NodeId in_node =
        cell.inputs[static_cast<std::size_t>(pin)];
    circuit::Trace in_seen, out_seen;
    bool armed = true;
    const circuit::TransientStop stop = [&](double t,
                                            const std::vector<double> &v) {
        in_seen.time.push_back(t);
        in_seen.value.push_back(v[static_cast<std::size_t>(in_node)]);
        out_seen.time.push_back(t);
        out_seen.value.push_back(v[static_cast<std::size_t>(cell.out)]);
        if (!armed || t < t2 + t_edge)
            return false;
        const double v_hi = out_seen.value.front();
        const double v_lo = out_seen.at(t2 - 0.05 * settle);
        if (out_seen.value.back() < v_lo + slewHigh * (v_hi - v_lo))
            return false;
        armed = false;
        return complete(measure(in_seen, out_seen));
    };

    const circuit::TransientResult result =
        circuit::TransientAnalysis(cell.ckt).run(config, stop);
    point = measure(result.node(in_node), result.node(cell.out));
    if (!complete(point)) {
        fatal("Characterizer: cell ", name, " pin ", pin,
              " failed to switch at slew ", slew, ", load ", load_cap);
    }
    cache::store("liberty.arcpoint", arc_digest,
                 {point.delayFall, point.delayRise, point.slewFall,
                  point.slewRise});
    return point;
}

double
Characterizer::averageStaticPower(const std::string &name) const
{
    cells::BuiltCell cell = instantiate(name, 0.0);
    const double vdd = factory.supply().vdd;
    const int fan_in = static_cast<int>(cell.inputs.size());

    double total = 0.0;
    const int states = 1 << fan_in;
    for (int state = 0; state < states; ++state) {
        for (int b = 0; b < fan_in; ++b) {
            const double v = (state >> b) & 1 ? vdd : 0.0;
            cell.ckt.setSourceWave(
                cell.inputSources[static_cast<std::size_t>(b)],
                circuit::Pwl::constant(v));
        }
        circuit::DcAnalysis dc(cell.ckt);
        total += dc.totalSourcePower(dc.operatingPoint());
    }
    return total / static_cast<double>(states);
}

StdCell
Characterizer::characterizeCombinational(const std::string &name) const
{
    static stats::Counter &stat_cells = stats::counter(
        "liberty.cells.characterized", "standard cells characterized");
    OTFT_TRACE_SCOPE("liberty.cell.characterize");
    ++stat_cells;

    StdCell cell;
    cell.name = name;
    cell.fanIn = fanInOf(name);
    cell.inputCap = factory.inputCap();

    const cells::BuiltCell built = instantiate(name, 0.0);
    cell.area = built.cellArea;
    cell.leakage = averageStaticPower(name);

    std::vector<double> load_axis;
    for (double m : config_.loadMultipliers)
        load_axis.push_back(m * cell.inputCap);

    static stats::Counter &stat_arcs = stats::counter(
        "liberty.arcs.characterized", "timing arcs characterized");
    const std::size_t n_load = load_axis.size();
    const std::size_t n_grid = config_.slewAxis.size() * n_load;
    for (int pin = 0; pin < cell.fanIn; ++pin) {
        ++stat_arcs;
        TimingArc arc;
        arc.fromPin = std::string(1, static_cast<char>('a' + pin));
        // Every (slew, load) point is an independent transient on its
        // own circuit instance; orderedMap keeps the slot order equal
        // to the serial nested loop, so the NLDM tables are
        // bit-identical at any job count.
        const auto grid = parallel::orderedMap<ArcPoint>(
            n_grid, [&](std::size_t k) {
                return measurePoint(name, pin, config_.slewAxis[k / n_load],
                                    load_axis[k % n_load]);
            });
        std::vector<double> d_rise, d_fall, s_rise, s_fall;
        for (const ArcPoint &p : grid) {
            d_rise.push_back(p.delayRise);
            d_fall.push_back(p.delayFall);
            s_rise.push_back(p.slewRise);
            s_fall.push_back(p.slewFall);
        }
        arc.delay[static_cast<int>(Sense::Rise)] =
            NldmTable(config_.slewAxis, load_axis, std::move(d_rise));
        arc.delay[static_cast<int>(Sense::Fall)] =
            NldmTable(config_.slewAxis, load_axis, std::move(d_fall));
        arc.outputSlew[static_cast<int>(Sense::Rise)] =
            NldmTable(config_.slewAxis, load_axis, std::move(s_rise));
        arc.outputSlew[static_cast<int>(Sense::Fall)] =
            NldmTable(config_.slewAxis, load_axis, std::move(s_fall));
        cell.arcs.push_back(std::move(arc));
    }
    return cell;
}

Characterizer::FlopRun
Characterizer::runFlop(double load_cap, double d_start) const
{
    cells::BuiltCell cell = instantiate("dff", load_cap);
    const double vdd = factory.supply().vdd;

    // PRE inactive; pulse CLR low first so Q starts at a known 0
    // (the cross-coupled NAND latch is bistable at the DC operating
    // point, so the initial state must be forced).
    cell.ckt.setSourceWave(cell.inputSources[2],
                           circuit::Pwl::constant(vdd));
    cell.ckt.setSourceWave(cell.inputSources[3],
                           circuit::Pwl::points({0.0, 0.3e-3, 0.32e-3},
                                                {0.0, 0.0, vdd}));
    cell.ckt.setSourceWave(
        cell.inputSources[0],
        circuit::Pwl::ramp(0.0, vdd, d_start, flopEdge));
    cell.ckt.setSourceWave(
        cell.inputSources[1],
        circuit::Pwl::ramp(0.0, vdd, flopClock - 0.5 * flopEdge,
                           flopEdge));

    circuit::TransientConfig config = config_.transient;
    config.dt = 6e-6;
    config.tStop = flopClock + 1.6e-3;

    circuit::TransientAnalysis tran(cell.ckt);
    const auto result = tran.run(config);
    return {result.node(cell.inputs[1]), result.node(cell.out)};
}

bool
Characterizer::flopCaptures(double d_lead, double load_cap) const
{
    // D rises d_lead before the CK edge (negative lead = after).
    const circuit::Trace q =
        runFlop(load_cap, flopClock - d_lead - 0.5 * flopEdge).q;
    return q.value.back() > 0.5 * factory.supply().vdd;
}

StdCell
Characterizer::characterizeFlop() const
{
    static stats::Counter &stat_cells = stats::counter(
        "liberty.cells.characterized", "standard cells characterized");
    OTFT_TRACE_SCOPE("liberty.cell.characterize");
    ++stat_cells;

    StdCell cell;
    cell.name = "dff";
    cell.fanIn = 1; // the D pin; CK/PRE/CLR handled separately
    cell.isSequential = true;
    cell.inputCap = factory.inputCap();

    const cells::BuiltCell built = instantiate("dff", 0.0);
    cell.area = built.cellArea;

    // Static power with the flop settled in each stored state.
    cell.leakage = averageStaticPower("inv") *
                   static_cast<double>(built.transistorCount) / 4.0;

    // CK fans out to two internal gates.
    cell.flop.clockPinCap = 2.0 * factory.inputCap();

    // --- clk->Q delay over a load grid, with D settled well before
    //     the edge, measured at the nominal clock slew.
    const double vdd = factory.supply().vdd;
    std::vector<double> load_axis;
    for (double m : config_.loadMultipliers)
        load_axis.push_back(m * cell.inputCap);

    trace::Scope diag_ctx(trace::labelled,
                          [] { return std::string("liberty.dff"); });

    std::vector<double> clkq_rise, q_slew_rise;
    for (double load : load_axis) {
        const auto [ck, q] = runFlop(load, 0.5e-3);
        const double v_lo = q.value.front();
        const double v_hi = q.value.back();
        const double d = circuit::measureDelay(ck, q, 0.0, vdd, true,
                                               v_lo, v_hi, true, 0.0);
        const double s = circuit::measureSlew(q, v_lo, v_hi, slewLow,
                                              slewHigh, true,
                                              flopClock - 0.1e-3);
        if (d < 0.0 || s < 0.0)
            fatal("Characterizer: DFF failed to capture at load ", load);
        clkq_rise.push_back(d);
        q_slew_rise.push_back(s);
    }
    // Quote the scalar clk->Q at nominal (fanout-1) load; the D->Q
    // arc tables carry the load dependence.
    cell.flop.clkToQ = clkq_rise[1];

    // --- Setup time by bisection on the D-before-CK lead at nominal
    //     load (the second grid point).
    const double nominal_load = load_axis[1];
    double lead_fail = 0.0;      // assume zero lead fails
    double lead_pass = 1.3e-3;   // generous lead captures
    if (flopCaptures(lead_fail, nominal_load)) {
        // Zero lead already captures: setup is essentially zero.
        cell.flop.setup = 0.0;
    } else {
        // Bisection takes capture to be monotone in lead, so when the
        // lead of five passing halvings (1.3 ms / 32) captures, those
        // halvings are known and the search starts on [0, 1.3 ms / 32]
        // with the same bracket doubles. A flop too slow for it runs
        // the full ten halvings.
        int it = 0;
        if (flopCaptures(lead_pass / 32.0, nominal_load)) {
            lead_pass /= 32.0;
            it = 5;
        }
        for (; it < 10; ++it) {
            const double mid = 0.5 * (lead_fail + lead_pass);
            if (flopCaptures(mid, nominal_load))
                lead_pass = mid;
            else
                lead_fail = mid;
        }
        cell.flop.setup = lead_pass;
    }
    // Hold of the six-NAND master-slave structure is absorbed in the
    // master loop delay; conservatively charge a fraction of setup.
    cell.flop.hold = 0.25 * cell.flop.setup;

    // --- The D->Q "arc" used by STA: delay = setup + clkToQ is
    //     handled structurally by the timing engine; here we provide
    //     Q output slew tables so downstream arcs see a real slew.
    TimingArc arc;
    arc.fromPin = "d";
    const std::vector<double> two_slews = {config_.slewAxis.front(),
                                           config_.slewAxis.back()};
    std::vector<double> delay_vals, slew_vals;
    for (int rep = 0; rep < 2; ++rep) {
        for (std::size_t j = 0; j < load_axis.size(); ++j) {
            delay_vals.push_back(clkq_rise[j]);
            slew_vals.push_back(q_slew_rise[j]);
        }
    }
    for (int sense = 0; sense < 2; ++sense) {
        arc.delay[sense] = NldmTable(two_slews, load_axis, delay_vals);
        arc.outputSlew[sense] =
            NldmTable(two_slews, load_axis, slew_vals);
    }
    cell.arcs.push_back(std::move(arc));
    return cell;
}

CellLibrary
Characterizer::build() const
{
    OTFT_TRACE_SCOPE("liberty.library.build");
    CellLibrary library("organic", factory.supply().vdd);

    // One task per roster cell; inside a worker the per-arc grid maps
    // run inline, so the two levels never deadlock. Cells are
    // assembled in roster order regardless of completion order.
    const std::size_t n_comb = std::size(combinationalNames);
    auto cells = parallel::orderedMap<StdCell>(
        n_comb + 1, [&](std::size_t i) {
            if (i < n_comb)
                return characterizeCombinational(
                    combinationalNames[i]);
            return characterizeFlop();
        });
    for (StdCell &cell : cells)
        library.addCell(std::move(cell));

    applyOrganicTechnology(library, config_);
    return library;
}

void
applyOrganicTechnology(CellLibrary &library,
                       const CharacterizerConfig &config)
{
    // Printed Au interconnect on glass: wide, thick wires over a
    // low-k substrate; net lengths scale with the ~0.5 mm cell pitch.
    WireParams &wire = library.wire();
    wire.resPerMeter = 4.9e4;     // 50 nm Au, ~10 um wide
    wire.capPerMeter = 5e-11;     // ~0.05 fF/um over glass
    wire.lengthBase = 0.5e-3;     // ~a cell pitch
    wire.lengthPerFanout = 0.25e-3;
    wire.driverRes = 1.7e6;       // ~5 V / 3 uA drive

    library.setDefaultSlew(config.slewAxis[1]);
    // Clock skew/jitter margin: a small fraction of the ~5 ms cycle.
    library.setClockMargin(3e-6);
}

CellLibrary
makeOrganicLibrary(CharacterizerConfig config)
{
    Characterizer characterizer{cells::CellFactory{}, config};
    return characterizer.build();
}

CellLibrary
cachedOrganicLibrary(const std::string &path)
{
    return loadOrBuild(path, [] { return makeOrganicLibrary(); });
}

CellLibrary
makeDnttLibrary(double mobility_scale)
{
    if (mobility_scale <= 0.0)
        fatal("makeDnttLibrary: mobility scale must be positive");
    device::Level61Params params; // golden pentacene values
    params.u0 *= mobility_scale;
    cells::CellFactory factory(params, cells::CellSizing{},
                               cells::SupplyConfig{});
    CharacterizerConfig config;
    for (double &slew : config.slewAxis)
        slew /= mobility_scale;
    config.dt /= mobility_scale;
    Characterizer characterizer(factory, config);
    return characterizer.build();
}

CellLibrary
cachedDnttLibrary(const std::string &path)
{
    return loadOrBuild(path, [] { return makeDnttLibrary(); });
}

} // namespace otft::liberty
