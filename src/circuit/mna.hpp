/**
 * @file
 * Modified nodal analysis core shared by the DC and transient engines.
 *
 * Unknown vector layout: node voltages for nodes 1..N-1 (ground is
 * eliminated) followed by one branch current per voltage source. The
 * nonlinear system F(x) = 0 collects KCL residuals at each node plus
 * the source branch equations; Newton-Raphson with per-component step
 * limiting and a small gmin-to-ground conductance solves it.
 */

#ifndef OTFT_CIRCUIT_MNA_HPP
#define OTFT_CIRCUIT_MNA_HPP

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/linear_solver.hpp"

namespace otft::circuit {

/** Newton-Raphson controls. */
struct NewtonConfig
{
    /** Leak conductance from every node to ground, siemens. */
    double gmin = 1e-12;
    /** Maximum Newton iterations per solve. */
    int maxIterations = 300;
    /** Convergence threshold on the max voltage update, volts. */
    double tolerance = 1e-7;
    /** Per-component update clamp, volts (damping). */
    double maxStep = 2.0;
    /**
     * Chord (modified) Newton: reuse the factored Jacobian across
     * iterations while convergence is fast, re-assembling only the
     * residual (which skips the device conductances and the LU
     * factorization). The Jacobian is refreshed automatically when
     * the update shrinks slower than chordRefreshRatio per iteration,
     * so strongly nonlinear solves degrade gracefully to full Newton.
     */
    bool chord = true;
    /**
     * Refresh trigger: when max_update > ratio * previous max_update
     * under frozen factors, the next iteration rebuilds the Jacobian.
     */
    double chordRefreshRatio = 0.5;
    /**
     * Singular-Jacobian recovery: when a fresh factorization is
     * singular (e.g. a floating node with gmin disabled), retry once
     * with this extra conductance on the node diagonals. 0 disables
     * recovery (the solve then fails as before).
     */
    double singularGminBoost = 1e-9;
};

/** A solution vector (node voltages + source branch currents). */
using Solution = std::vector<double>;

/** One recorded Newton iteration. */
struct IterationSample
{
    /** 0-based iteration index within the solve. */
    int iteration = 0;
    /** Inf-norm of the residual F(x) at the iterate. */
    double residualNorm = 0.0;
    /** Inf-norm of the clamped voltage update applied. */
    double maxUpdate = 0.0;
    /** True when the iteration reused a frozen (chord) Jacobian. */
    bool chord = false;
};

/**
 * The assembled MNA problem for one circuit.
 *
 * An Mna owns its Newton workspace (Jacobian, LU factors, residual and
 * update vectors), sized once at construction and reused by every
 * solveNewton() call, so a solve with failure dumps off allocates
 * nothing. solveNewton() is therefore non-const, and one Mna serves
 * one thread at a time: each DC or transient analysis builds its own.
 */
class Mna
{
  public:
    explicit Mna(const Circuit &circuit, NewtonConfig config = {});

    /** Number of unknowns (nodes - 1 + voltage sources). */
    std::size_t numUnknowns() const { return unknowns; }

    /** A zero-initialized solution vector. */
    Solution zeroSolution() const { return Solution(unknowns, 0.0); }

    /**
     * Run Newton-Raphson to convergence.
     * @param x in: initial guess; out: solution on success
     * @param time waveform evaluation time for sources
     * @param source_scale multiplier on all independent sources
     *        (used by source-stepping homotopy)
     * @param dt backward-Euler step; <= 0 disables capacitor stamps
     *        (DC analysis)
     * @param x_prev previous-timestep solution for companion models;
     *        required when dt > 0
     * @param log when non-null, every iteration's residual/update
     *        norms and chord decision are appended to it (diag_replay
     *        prints a dumped solve's complete history from it). The
     *        iteration sequence is unchanged; the log only observes.
     * @return true on convergence
     *
     * A solve records its iterations only when `log` is given or
     * failure dumps are on (`--diag-dir`); in the latter case into a
     * workspace vector, and a failure writes the log's tail to a dump
     * (circuit/dump). Otherwise it computes no residual norm.
     */
    bool solveNewton(Solution &x, double time, double source_scale,
                     double dt, const Solution *x_prev,
                     std::vector<IterationSample> *log = nullptr);

    /** Voltage of a node in a solution. */
    double nodeVoltage(const Solution &x, NodeId node) const;

    /**
     * Branch current of a voltage source (flows from the positive
     * terminal through the source to the negative terminal externally,
     * i.e. the current delivered into the circuit at `pos`).
     */
    double sourceCurrent(const Solution &x, SourceId source) const;

    const Circuit &circuit() const { return ckt; }
    const NewtonConfig &config() const { return cfg; }

  private:
    /** Row/column index of a node, or -1 for ground. */
    int nodeIndex(NodeId node) const { return node - 1; }

    /**
     * Assemble the residual at the current iterate, and the Jacobian
     * too when `jac` is non-null. A Jacobian build evaluates each FET
     * once for its current and both conductances; chord iterations
     * pass null and take the current alone.
     */
    void assemble(const Solution &x, double time, double source_scale,
                  double dt, const Solution *x_prev, Matrix *jac,
                  std::vector<double> &residual) const;

    const Circuit &ckt;
    NewtonConfig cfg;
    std::size_t numNodeUnknowns;
    std::size_t unknowns;
    /** Flattened Jacobian entries assemble() writes (sorted). */
    std::vector<std::uint32_t> pattern_;

    // Newton workspace. Entries of jac_ off the stamp pattern stay
    // zero for the Mna's lifetime; every solve overwrites the rest.
    Matrix jac_;
    LuFactors lu_;
    std::vector<double> residual_;
    /** The update J^-1 * residual of one iteration. */
    std::vector<double> delta_;
    /** The start iterate of a solve that may dump on failure. */
    Solution dumpStart_;
    /** The iteration log of a solve that may dump on failure. */
    std::vector<IterationSample> dumpLog_;
};

} // namespace otft::circuit

#endif // OTFT_CIRCUIT_MNA_HPP
