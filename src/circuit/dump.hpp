/**
 * @file
 * Failure forensics: structured, content-addressed dumps of a solve
 * that went wrong, and the machinery to replay one standalone.
 *
 * When diagnostics dumps are enabled (`--diag-dir`), the Newton kernel
 * and the transient engine call writeFailureDump() on non-convergence,
 * unrecoverable singular Jacobians, or LTE budget exhaustion. The dump
 * ("otft-diag-dump-3") captures everything that determines the solve:
 * full topology, device model parameters, solver configuration, the
 * initial iterate, the previous-timestep state, the context label, and
 * the last dumpedIterations entries of the solve's iteration log.
 *
 * Dumps are content-addressed — the filename is an FNV-1a digest of
 * the document body — so a sweep that hits the same failure thousands
 * of times produces one artifact, and re-running a fixed build shows
 * new content as a new file.
 *
 * readFailureDump() + replayDump() invert the process: rebuild the
 * circuit bit-exactly (doubles round-trip via max_digits10) and re-run
 * the identical Newton solve with full per-iteration telemetry. The
 * `diag_replay` tool wraps this as a command-line debugger.
 */

#ifndef OTFT_CIRCUIT_DUMP_HPP
#define OTFT_CIRCUIT_DUMP_HPP

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/mna.hpp"

namespace otft::circuit::dump {

/** Schema tag of a failure-dump document. */
inline constexpr const char *dumpSchema = "otft-diag-dump-3";

/** Iterations of history a dump keeps: the last ones of the solve. */
inline constexpr std::size_t dumpedIterations = 64;

/** What kind of solve a failure dump covers. */
enum class SolveKind { Dc, TransientStep };

/** @return "dc" or "transient_step". */
const char *toString(SolveKind kind);

/** Everything a dump captures, parsed back into memory. */
struct FailureDump
{
    std::string reason;
    std::string context;

    /** What kind of solve failed and at what point in time. */
    SolveKind kind = SolveKind::Dc;
    double time = 0.0;
    double sourceScale = 1.0;
    double dt = 0.0;

    NewtonConfig config;
    Circuit circuit;

    /** Initial iterate handed to the failing solve. */
    Solution x0;
    /** Previous-timestep state (present only when dt > 0). */
    bool hasPrev = false;
    Solution xPrev;

    /** The last (<= dumpedIterations) iterations before the failure. */
    std::vector<IterationSample> trace;
};

/**
 * Serialize a failure and write it under the diag::Collector dump
 * directory, honoring the per-process dump cap.
 * @param x0 the iterate the solve started from
 * @param trace the solve's iterations (chronological); the dump keeps
 *        the last dumpedIterations of them
 * @return the dump path, or "" when dumps are disabled, the cap is
 *         reached, or the circuit holds a model kind this writer does
 *         not understand (warned, never fatal — a diagnostics failure
 *         must not take down the run it is diagnosing).
 */
std::string writeFailureDump(
    const Circuit &circuit, const NewtonConfig &config,
    const Solution &x0, SolveKind kind, double time,
    double source_scale, double dt, const Solution *x_prev,
    const std::string &reason, std::span<const IterationSample> trace);

/**
 * Serialize the dump document to a string (exposed for tests; the
 * content hash is computed over exactly this text). Fatal on a model
 * kind that cannot be serialized.
 */
std::string serializeDump(
    const Circuit &circuit, const NewtonConfig &config,
    const Solution &x0, SolveKind kind, double time,
    double source_scale, double dt, const Solution *x_prev,
    const std::string &reason, const std::string &context,
    std::span<const IterationSample> trace);

/** Parse a dump file; fatal on malformed or schema-mismatched input. */
FailureDump readFailureDump(const std::string &path);

/** Parse a dump document from text (for tests). */
FailureDump parseFailureDump(const std::string &text);

/** Outcome of replaying a dump. */
struct ReplayResult
{
    bool converged = false;
    Solution solution;
    /** Every iteration of the replayed solve. */
    std::vector<IterationSample> trace;
};

/**
 * Re-run the dumped solve with identical inputs. The replayed
 * iteration sequence is bit-identical to the original run, so the
 * overlapping tail of `dump.trace` matches `result.trace` exactly.
 */
ReplayResult replayDump(const FailureDump &dump);

} // namespace otft::circuit::dump

#endif // OTFT_CIRCUIT_DUMP_HPP
