#include "circuit/mna.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "circuit/dump.hpp"
#include "util/diag.hpp"
#include "util/logging.hpp"
#include "util/stats_registry.hpp"
#include "util/trace.hpp"

namespace otft::circuit {

namespace {

/**
 * The Jacobian sparsity pattern of a circuit: every flattened entry
 * (row * n + col, n = nodes - 1 + voltage sources) that an MNA
 * assembly can write — gmin diagonals, conductance quads for
 * resistors/capacitors, source coupling entries, FET stamps — sorted
 * and deduplicated. Used for pattern-aware zeroing between Newton
 * stamps (Matrix::zeroEntries).
 */
std::vector<std::uint32_t>
stampPattern(const Circuit &circuit)
{
    const std::size_t n_node = circuit.numNodes() - 1;
    const std::size_t unknowns =
        n_node + circuit.voltageSources().size();

    std::vector<std::uint32_t> entries;
    const auto add = [&](int r, int c) {
        entries.push_back(static_cast<std::uint32_t>(
            static_cast<std::size_t>(r) * unknowns +
            static_cast<std::size_t>(c)));
    };
    // The conductance quad of stamp_g (and of the FET gds term).
    const auto add_pair = [&](int ia, int ib) {
        if (ia >= 0) {
            add(ia, ia);
            if (ib >= 0)
                add(ia, ib);
        }
        if (ib >= 0) {
            add(ib, ib);
            if (ia >= 0)
                add(ib, ia);
        }
    };
    const auto index = [](NodeId node) { return node - 1; };

    // gmin (and the singular-recovery boost) touch node diagonals.
    for (std::size_t n = 0; n < n_node; ++n)
        add(static_cast<int>(n), static_cast<int>(n));
    for (const auto &r : circuit.resistors())
        add_pair(index(r.a), index(r.b));
    for (const auto &c : circuit.capacitors())
        add_pair(index(c.a), index(c.b));
    const auto &vsources = circuit.voltageSources();
    for (std::size_t k = 0; k < vsources.size(); ++k) {
        const int row = static_cast<int>(n_node + k);
        const int ip = index(vsources[k].pos);
        const int in = index(vsources[k].neg);
        if (ip >= 0) {
            add(ip, row);
            add(row, ip);
        }
        if (in >= 0) {
            add(in, row);
            add(row, in);
        }
    }
    for (const auto &fet : circuit.fets()) {
        const int d = index(fet.drain);
        const int g = index(fet.gate);
        const int s = index(fet.source);
        if (d >= 0) {
            add(d, d);
            if (g >= 0)
                add(d, g);
            if (s >= 0)
                add(d, s);
        }
        if (s >= 0) {
            add(s, s);
            if (g >= 0)
                add(s, g);
            if (d >= 0)
                add(s, d);
        }
    }

    std::sort(entries.begin(), entries.end());
    entries.erase(std::unique(entries.begin(), entries.end()),
                  entries.end());
    return entries;
}

} // namespace

Mna::Mna(const Circuit &circuit, NewtonConfig config)
    : ckt(circuit), cfg(config),
      numNodeUnknowns(circuit.numNodes() - 1),
      unknowns(numNodeUnknowns + circuit.voltageSources().size()),
      pattern_(stampPattern(circuit)), jac_(unknowns), lu_(unknowns),
      residual_(unknowns, 0.0), delta_(unknowns, 0.0)
{
}

double
Mna::nodeVoltage(const Solution &x, NodeId node) const
{
    if (node == Circuit::ground)
        return 0.0;
    const int idx = nodeIndex(node);
    if (idx < 0 || static_cast<std::size_t>(idx) >= numNodeUnknowns)
        fatal("Mna::nodeVoltage: bad node ", node);
    return x[static_cast<std::size_t>(idx)];
}

double
Mna::sourceCurrent(const Solution &x, SourceId source) const
{
    const std::size_t k = static_cast<std::size_t>(source);
    if (k >= ckt.voltageSources().size())
        fatal("Mna::sourceCurrent: bad source ", source);
    return x[numNodeUnknowns + k];
}

void
Mna::assemble(const Solution &x, double time, double source_scale,
              double dt, const Solution *x_prev, Matrix *jac,
              std::vector<double> &residual) const
{
    // Pattern-aware zeroing: only the previously-stamped entries need
    // resetting; everything else is still zero from the matrix's
    // construction (assemble never writes off-pattern).
    if (jac != nullptr)
        jac->zeroEntries(pattern_);
    std::fill(residual.begin(), residual.end(), 0.0);

    // Node voltages of an iterate, unchecked: every node a circuit
    // element names is valid by construction.
    const auto voltage = [](const Solution &sol, NodeId n) {
        return n == Circuit::ground
                   ? 0.0
                   : sol[static_cast<std::size_t>(n - 1)];
    };
    auto volt = [&](NodeId n) { return voltage(x, n); };

    // Stamp a conductance between two nodes into Jacobian + residual.
    auto stamp_g = [&](NodeId a, NodeId b, double g, double i_extra_a) {
        const double v = volt(a) - volt(b);
        const double i = g * v + i_extra_a;
        const int ia = nodeIndex(a), ib = nodeIndex(b);
        if (ia >= 0) {
            residual[static_cast<std::size_t>(ia)] += i;
            if (jac != nullptr) {
                jac->at(ia, ia) += g;
                if (ib >= 0)
                    jac->at(ia, ib) -= g;
            }
        }
        if (ib >= 0) {
            residual[static_cast<std::size_t>(ib)] -= i;
            if (jac != nullptr) {
                jac->at(ib, ib) += g;
                if (ia >= 0)
                    jac->at(ib, ia) -= g;
            }
        }
    };

    // gmin from every non-ground node to ground.
    for (std::size_t n = 0; n < numNodeUnknowns; ++n) {
        if (jac != nullptr)
            jac->at(n, n) += cfg.gmin;
        residual[n] += cfg.gmin * x[n];
    }

    for (const auto &r : ckt.resistors())
        stamp_g(r.a, r.b, 1.0 / r.resistance, 0.0);

    if (dt > 0.0) {
        // Backward-Euler companion: i = (C/dt) * (v - v_prev).
        if (x_prev == nullptr)
            panic("Mna::assemble: transient step without previous state");
        for (const auto &c : ckt.capacitors()) {
            const double g = c.capacitance / dt;
            const double vp =
                voltage(*x_prev, c.a) - voltage(*x_prev, c.b);
            stamp_g(c.a, c.b, g, -g * vp);
        }
    }

    for (const auto &s : ckt.currentSources()) {
        const double i = s.current * source_scale;
        const int ip = nodeIndex(s.pos), in = nodeIndex(s.neg);
        // Source pushes current out of `pos` into the circuit.
        if (ip >= 0)
            residual[static_cast<std::size_t>(ip)] -= i;
        if (in >= 0)
            residual[static_cast<std::size_t>(in)] += i;
    }

    const auto &vsources = ckt.voltageSources();
    for (std::size_t k = 0; k < vsources.size(); ++k) {
        const auto &s = vsources[k];
        const std::size_t row = numNodeUnknowns + k;
        const double i_branch = x[row];
        const int ip = nodeIndex(s.pos), in = nodeIndex(s.neg);
        // Branch current leaves the source at `pos`.
        if (ip >= 0) {
            residual[static_cast<std::size_t>(ip)] -= i_branch;
            if (jac != nullptr) {
                jac->at(ip, row) -= 1.0;
                jac->at(row, ip) += 1.0;
            }
        }
        if (in >= 0) {
            residual[static_cast<std::size_t>(in)] += i_branch;
            if (jac != nullptr) {
                jac->at(in, row) += 1.0;
                jac->at(row, in) -= 1.0;
            }
        }
        residual[row] =
            volt(s.pos) - volt(s.neg) - s.wave.at(time) * source_scale;
    }

    trace::Scope fet_frame("device.fet_eval");
    for (const auto &fet : ckt.fets()) {
        const double vgs = volt(fet.gate) - volt(fet.source);
        const double vds = volt(fet.drain) - volt(fet.source);
        const int idx_d = nodeIndex(fet.drain);
        const int idx_g = nodeIndex(fet.gate);
        const int idx_s = nodeIndex(fet.source);

        // A chord iteration needs only the current; a Jacobian build
        // takes it with both conductances from one device evaluation.
        device::TransistorModel::Evaluation e;
        if (jac == nullptr)
            e.id = fet.model->drainCurrent(vgs, vds);
        else
            e = fet.model->evaluate(vgs, vds);

        // Current id flows into the drain terminal and out of the
        // source terminal.
        if (idx_d >= 0)
            residual[static_cast<std::size_t>(idx_d)] += e.id;
        if (idx_s >= 0)
            residual[static_cast<std::size_t>(idx_s)] -= e.id;
        if (jac == nullptr)
            continue;

        const double gm = e.gm;
        const double gds = e.gds;
        if (idx_d >= 0) {
            jac->at(idx_d, idx_d) += gds;
            if (idx_g >= 0)
                jac->at(idx_d, idx_g) += gm;
            if (idx_s >= 0)
                jac->at(idx_d, idx_s) -= gm + gds;
        }
        if (idx_s >= 0) {
            jac->at(idx_s, idx_s) += gm + gds;
            if (idx_g >= 0)
                jac->at(idx_s, idx_g) -= gm;
            if (idx_d >= 0)
                jac->at(idx_s, idx_d) -= gds;
        }
    }
}

bool
Mna::solveNewton(Solution &x, double time, double source_scale, double dt,
                 const Solution *x_prev, std::vector<IterationSample> *log)
{
    if (x.size() != unknowns)
        fatal("Mna::solveNewton: bad solution vector size");

    static const diag::Counter stat_solves("circuit.newton.solves",
                                           "Newton solves attempted");
    static const diag::Counter stat_iters(
        "circuit.newton.iterations", "Newton iterations executed");
    static const diag::Counter stat_chord_iters(
        "circuit.newton.chord_iterations",
        "iterations served by a reused (chord) Jacobian");
    static const diag::Counter stat_refreshes(
        "circuit.newton.jacobian_refreshes",
        "chord iterations that triggered a Jacobian rebuild "
        "(slow convergence)");
    static const diag::Counter stat_singular_recoveries(
        "circuit.newton.singular_recoveries",
        "singular Jacobians recovered via a diagonal gmin boost");
    static const diag::Counter stat_failures(
        "circuit.newton.failures", "Newton solves that diverged");
    static stats::Histogram &stat_iter_hist = stats::histogram(
        "circuit.newton.iterations_per_solve", 0.0, 64.0, 16,
        "distribution of iterations per converged solve");
    static stats::Accumulator &stat_time = stats::accumulator(
        "circuit.newton.solve_time", "seconds per Newton solve");

    stat_solves.add();
    trace::Scope scope("mna.solve_newton", &stat_time);

    // Tallied in plain locals and published once, when the solve
    // closes.
    std::uint64_t iterations = 0;
    std::uint64_t chord_iterations = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t recoveries = 0;
    const auto close = [&](bool converged) {
        stat_iters.add(iterations);
        stat_chord_iters.add(chord_iterations);
        stat_refreshes.add(refreshes);
        stat_singular_recoveries.add(recoveries);
        if (!converged)
            stat_failures.add();
        return converged;
    };

    // Forensics dumps need the iterate the solve *started* from and
    // its iterations; keep them, in the workspace, only when a
    // failure here would dump.
    const bool dumps = diag::Collector::instance().dumpsEnabled();
    if (dumps) {
        dumpStart_.assign(x.begin(), x.end());
        if (log == nullptr) {
            dumpLog_.clear();
            log = &dumpLog_;
        }
    }
    const std::size_t log_start = log != nullptr ? log->size() : 0;

    Matrix &jac = jac_;
    LuFactors &lu = lu_;
    std::vector<double> &residual = residual_;
    std::vector<double> &delta = delta_;

    // Assemble and factor the Jacobian; on a singular matrix, retry once
    // with a small conductance added to the node diagonals (rescues
    // e.g. momentarily floating nodes when gmin is disabled).
    const auto refactor = [&]() -> bool {
        {
            trace::Scope assemble_frame("mna.assemble_jacobian");
            assemble(x, time, source_scale, dt, x_prev, &jac, residual);
        }
        trace::Scope lu_frame("mna.lu_factor");
        if (lu.factor(jac))
            return true;
        if (cfg.singularGminBoost <= 0.0)
            return false;
        ++recoveries;
        for (std::size_t n = 0; n < numNodeUnknowns; ++n)
            jac.at(n, n) += cfg.singularGminBoost;
        return lu.factor(jac);
    };

    // On failure, register the forensics artifact (a no-op unless
    // --diag-dir is configured and the dump cap allows it).
    const auto dump_failure = [&](const char *reason) {
        if (!dumps)
            return;
        const dump::SolveKind kind = dt > 0.0
                                         ? dump::SolveKind::TransientStep
                                         : dump::SolveKind::Dc;
        dump::writeFailureDump(
            ckt, cfg, dumpStart_, kind, time, source_scale, dt, x_prev, reason,
            std::span<const IterationSample>(*log).subspan(log_start));
    };

    double prev_update = 0.0;
    bool refresh = true;
    for (int iter = 0; iter < cfg.maxIterations; ++iter) {
        ++iterations;
        bool chord_iter = false;
        if (refresh || !cfg.chord) {
            if (!refactor()) {
                dump_failure("jacobian_singular");
                return close(false);
            }
            refresh = false;
        } else {
            // Chord iteration: new residual against frozen factors.
            ++chord_iterations;
            chord_iter = true;
            assemble(x, time, source_scale, dt, x_prev, nullptr,
                     residual);
        }

        // Residual inf-norm at the iterate (observability only; the
        // O(n) scan is skipped entirely on unlogged solves).
        double residual_norm = 0.0;
        if (log != nullptr)
            for (std::size_t i = 0; i < unknowns; ++i)
                residual_norm =
                    std::max(residual_norm, std::abs(residual[i]));

        // Solve J * delta = residual; update is x -= delta.
        delta = residual;
        lu.solve(delta);

        double max_update = 0.0;
        for (std::size_t i = 0; i < unknowns; ++i) {
            double step = delta[i];
            // Clamp only voltage unknowns; branch currents may jump.
            if (i < numNodeUnknowns)
                step = std::clamp(step, -cfg.maxStep, cfg.maxStep);
            x[i] -= step;
            if (i < numNodeUnknowns)
                max_update = std::max(max_update, std::abs(step));
        }

        if (log != nullptr)
            log->push_back({iter, residual_norm, max_update, chord_iter});

        if (max_update < cfg.tolerance) {
            stat_iter_hist.sample(static_cast<double>(iter + 1));
            return close(true);
        }

        // Refresh the Jacobian when the frozen one converges slowly
        // (linear rate worse than chordRefreshRatio per iteration).
        if (cfg.chord && iter > 0 &&
            max_update > cfg.chordRefreshRatio * prev_update) {
            refresh = true;
            ++refreshes;
        }
        prev_update = max_update;
    }
    dump_failure("newton_max_iterations");
    return close(false);
}

} // namespace otft::circuit
