#include "circuit/transient.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "circuit/dump.hpp"
#include "util/diag.hpp"
#include "util/logging.hpp"
#include "util/trace.hpp"

namespace otft::circuit {

namespace {

const diag::Counter &
statSteps()
{
    static const diag::Counter c("circuit.transient.steps",
                                 "transient time steps integrated");
    return c;
}

const diag::Counter &
statRetries()
{
    static const diag::Counter c("circuit.transient.retries",
                                 "time steps that needed step halving");
    return c;
}

} // namespace

TransientResult::TransientResult(std::vector<double> time,
                                 std::vector<std::vector<double>> node_v,
                                 std::vector<std::vector<double>> source_i)
    : time_(std::move(time)), nodeV(std::move(node_v)),
      sourceI(std::move(source_i))
{
}

Trace
TransientResult::node(NodeId node) const
{
    if (node < 0 || static_cast<std::size_t>(node) >= nodeV.size())
        fatal("TransientResult::node: bad node ", node);
    return {time_, nodeV[static_cast<std::size_t>(node)]};
}

Trace
TransientResult::source(SourceId source) const
{
    if (source < 0 ||
        static_cast<std::size_t>(source) >= sourceI.size())
        fatal("TransientResult::source: bad source ", source);
    return {time_, sourceI[static_cast<std::size_t>(source)]};
}

double
TransientResult::sourceEnergy(SourceId source, double v_value, double t0,
                              double t1) const
{
    const Trace i = this->source(source);
    double energy = 0.0;
    for (std::size_t k = 0; k + 1 < time_.size(); ++k) {
        const double ta = std::clamp(time_[k], t0, t1);
        const double tb = std::clamp(time_[k + 1], t0, t1);
        if (tb <= ta)
            continue;
        const double p_a = v_value * i.value[k];
        const double p_b = v_value * i.value[k + 1];
        energy += 0.5 * (p_a + p_b) * (tb - ta);
    }
    return energy;
}

TransientAnalysis::TransientAnalysis(Circuit &circuit)
    : ckt(circuit)
{
}

TransientResult
TransientAnalysis::run(const TransientConfig &config,
                       const TransientStop &stop) const
{
    static const diag::Counter stat_runs("circuit.transient.runs",
                                         "transient analyses executed");
    if (config.tStop <= 0.0 || config.dt <= 0.0)
        fatal("TransientAnalysis: tStop and dt must be positive");

    // Initial condition: DC operating point with sources at t = 0.
    Solution x = DcAnalysis(ckt, config.newton).operatingPoint();

    OTFT_TRACE_SCOPE("circuit.transient.run");
    stat_runs.add();
    Mna mna(ckt, config.newton);
    if (config.fixedStep)
        return runFixed(config, mna, std::move(x), stop);
    return runAdaptive(config, mna, std::move(x), stop);
}

/**
 * The historical uniform-grid integrator. Every arithmetic operation
 * here is kept identical to the pre-adaptive engine so fixedStep runs
 * reproduce old trajectories bit-for-bit.
 */
TransientResult
TransientAnalysis::runFixed(const TransientConfig &config, Mna &mna,
                            Solution x, const TransientStop &stop) const
{
    // Build the time grid: uniform steps plus waveform breakpoints.
    std::set<double> grid;
    const std::size_t n_steps =
        static_cast<std::size_t>(std::ceil(config.tStop / config.dt));
    for (std::size_t k = 0; k <= n_steps; ++k)
        grid.insert(std::min(config.dt * static_cast<double>(k),
                             config.tStop));
    for (const auto &s : ckt.voltageSources())
        for (double t : s.wave.breakpoints())
            if (t > 0.0 && t < config.tStop)
                grid.insert(t);
    std::vector<double> times(grid.begin(), grid.end());

    const std::size_t n_nodes = ckt.numNodes();
    const std::size_t n_sources = ckt.voltageSources().size();
    std::vector<std::vector<double>> node_v(n_nodes);
    std::vector<std::vector<double>> source_i(n_sources);
    std::vector<double> v_now(n_nodes);

    // Record a point; true once the stop predicate accepts it.
    auto record = [&](double t, const Solution &sol) {
        for (std::size_t n = 0; n < n_nodes; ++n) {
            v_now[n] = mna.nodeVoltage(sol, static_cast<NodeId>(n));
            node_v[n].push_back(v_now[n]);
        }
        for (std::size_t s = 0; s < n_sources; ++s)
            source_i[s].push_back(
                mna.sourceCurrent(sol, static_cast<SourceId>(s)));
        return stop && stop(t, v_now);
    };
    if (record(times.front(), x))
        times.resize(1);

    for (std::size_t k = 1; k < times.size(); ++k) {
        const double t = times[k];
        const double h = t - times[k - 1];
        statSteps().add();
        Solution x_next = x;
        if (!mna.solveNewton(x_next, t, 1.0, h, &x)) {
            statRetries().add();
            // Retry with the step halved (two sub-steps).
            const double t_mid = times[k - 1] + 0.5 * h;
            Solution x_mid = x;
            const bool ok =
                mna.solveNewton(x_mid, t_mid, 1.0, 0.5 * h, &x) &&
                (x_next = x_mid,
                 mna.solveNewton(x_next, t, 1.0, 0.5 * h, &x_mid));
            if (!ok) {
                fatal("TransientAnalysis: Newton failed at t = ", t,
                      " s even after step halving");
            }
        }
        x = std::move(x_next);
        if (record(t, x))
            times.resize(k + 1); // ends the loop
    }

    return TransientResult(std::move(times), std::move(node_v),
                           std::move(source_i));
}

/**
 * LTE-controlled variable-step integrator.
 *
 * The BE local truncation error over a step h is h^2/2 * v''(xi).
 * With the last three accepted solutions (x_before at t-h_prev, x at
 * t, x_new at t+h) the second derivative of each node voltage is
 * estimated by divided differences, giving per-node
 *
 *     lte = h^2 * |d1 - d0| / (h + h_prev),
 *     d1 = (x_new - x) / h,   d0 = (x - x_before) / h_prev.
 *
 * A step whose worst-node lte exceeds config.lteTol is rejected and
 * retried smaller; accepted steps scale the next step by
 * 0.9 * sqrt(lteTol / err), capped at 2x growth. Steps land exactly
 * on waveform breakpoints, where the difference history is also reset
 * (the input derivative is discontinuous there, so carrying the
 * estimate across would reject the first post-edge step spuriously).
 *
 * The same history seeds each Newton solve: the predictor
 * x + (h / h_prev) * (x - x_before) is the standard SPICE
 * predictor-corrector start. It changes only where Newton begins, so
 * a converged point moves within Newton's tolerance and the step
 * sequence the LTE control picks stays the same in practice, while
 * about a quarter of the iterations are saved.
 */
TransientResult
TransientAnalysis::runAdaptive(const TransientConfig &config, Mna &mna,
                               Solution x, const TransientStop &stop) const
{
    static const diag::Counter stat_rejections(
        "circuit.transient.lte_rejections",
        "adaptive steps rejected for excess local truncation error");

    const double dt_min =
        config.dtMin > 0.0 ? config.dtMin : config.dt / 256.0;
    const double dt_max = std::max(
        dt_min, config.dtMax > 0.0 ? config.dtMax : config.dt * 64.0);
    if (config.lteTol <= 0.0)
        fatal("TransientAnalysis: lteTol must be positive");

    // Mandatory stop times: waveform breakpoints, then tStop.
    std::set<double> stop_set;
    for (const auto &s : ckt.voltageSources())
        for (double t : s.wave.breakpoints())
            if (t > 0.0 && t < config.tStop)
                stop_set.insert(t);
    stop_set.insert(config.tStop);
    const std::vector<double> stops(stop_set.begin(), stop_set.end());

    const std::size_t n_nodes = ckt.numNodes();
    const std::size_t n_sources = ckt.voltageSources().size();
    const std::size_t n_volt = n_nodes - 1;
    std::vector<double> times;
    std::vector<std::vector<double>> node_v(n_nodes);
    std::vector<std::vector<double>> source_i(n_sources);
    std::vector<double> v_now(n_nodes);

    // Record a point; true once the stop predicate accepts it.
    auto record = [&](double t, const Solution &sol) {
        times.push_back(t);
        for (std::size_t n = 0; n < n_nodes; ++n) {
            v_now[n] = mna.nodeVoltage(sol, static_cast<NodeId>(n));
            node_v[n].push_back(v_now[n]);
        }
        for (std::size_t s = 0; s < n_sources; ++s)
            source_i[s].push_back(
                mna.sourceCurrent(sol, static_cast<SourceId>(s)));
        return stop && stop(t, v_now);
    };
    bool stopped = record(0.0, x);

    // Runaway guard: no well-posed run needs more attempts than
    // resolving the whole span at dt_min with every step rejected once.
    const std::size_t max_attempts =
        4 * static_cast<std::size_t>(config.tStop / dt_min + 1.0) +
        4 * stops.size() + 1024;
    std::size_t attempts = 0;

    double t = 0.0;
    double h = std::clamp(config.dt, dt_min, dt_max);
    std::size_t next_stop = 0;
    // Divided-difference history (invalid until two accepted steps
    // inside the current waveform segment). An accepted step rotates
    // x_before <- x <- x_new, so no step allocates a solution.
    Solution x_before(x.size(), 0.0);
    Solution x_new(x.size(), 0.0);
    double h_prev = 0.0;
    bool have_history = false;

    while (!stopped && t < config.tStop && next_stop < stops.size()) {
        if (++attempts > max_attempts) {
            // LTE budget exhausted: a reject/shrink loop that never
            // advances. Leave a forensics artifact before bailing.
            dump::writeFailureDump(
                ckt, config.newton, x, dump::SolveKind::TransientStep,
                t, 1.0, h, have_history ? &x_before : nullptr,
                "transient_lte_budget", {});
            fatal("TransientAnalysis: adaptive stepping stalled at t = ",
                  t, " s");
        }

        // Land exactly on the next mandatory stop time.
        const double bp = stops[next_stop];
        bool landing = false;
        if (t + h >= bp || bp - (t + h) < 0.25 * dt_min) {
            h = bp - t;
            landing = true;
        }

        statSteps().add();
        trace::Scope step_frame("transient.step");
        const double t_new = landing ? bp : t + h;
        // Newton starts from the predictor, or from x while the
        // segment has no history yet.
        x_new = x;
        if (have_history) {
            const double ratio = h / h_prev;
            for (std::size_t i = 0; i < x_new.size(); ++i)
                x_new[i] += ratio * (x[i] - x_before[i]);
        }
        if (!mna.solveNewton(x_new, t_new, 1.0, h, &x)) {
            statRetries().add();
            if (h <= dt_min * 1.0000001)
                fatal("TransientAnalysis: Newton failed at t = ", t_new,
                      " s with the minimum step");
            h = std::max(dt_min, 0.5 * h);
            continue;
        }

        // LTE estimate once two prior points exist in this segment.
        double growth = 2.0;
        if (have_history) {
            trace::Scope lte_frame("transient.lte_control");
            double err = 0.0;
            for (std::size_t i = 0; i < n_volt; ++i) {
                const double d1 = (x_new[i] - x[i]) / h;
                const double d0 = (x[i] - x_before[i]) / h_prev;
                const double lte =
                    h * h * std::abs(d1 - d0) / (h + h_prev);
                err = std::max(err, lte);
            }
            if (err > config.lteTol && h > dt_min * 1.0000001) {
                stat_rejections.add();
                const double shrink = std::max(
                    0.3, 0.9 * std::sqrt(config.lteTol / err));
                h = std::max(dt_min, h * shrink);
                continue;
            }
            if (err > 0.0)
                growth = std::min(
                    2.0, 0.9 * std::sqrt(config.lteTol / err));
        }

        // Accept.
        std::swap(x_before, x);
        std::swap(x, x_new);
        h_prev = h;
        have_history = true;
        t = t_new;
        stopped = record(t, x);

        if (landing) {
            ++next_stop;
            // Input slope is discontinuous across a breakpoint:
            // restart both the difference history and the step size.
            have_history = false;
            h = std::clamp(config.dt, dt_min, dt_max);
        } else {
            h = std::clamp(h * std::max(growth, 0.1), dt_min, dt_max);
        }
    }

    return TransientResult(std::move(times), std::move(node_v),
                           std::move(source_i));
}

} // namespace otft::circuit
