/**
 * @file
 * Forensics replay debugger for solver failure dumps, plus a
 * validation mode for the --diag-json telemetry document (used by
 * `scripts/verify.sh --diag`).
 *
 * Usage:
 *   diag_replay DUMP.json
 *       Rebuild the dumped circuit and re-run the failing solve with
 *       full per-iteration logging. Prints the iteration table and a
 *       REPRODUCED/DIVERGED verdict: the replayed iterations must match
 *       the dump's recorded trace bit for bit.
 *   diag_replay --check-diag FILE.json
 *       Validate a --diag-json telemetry document: the schema, and a
 *       contexts map of {registry counter name: count} objects.
 *
 * Exit codes: 0 reproduced / valid, 1 diverged / invalid, 2 usage or
 * I/O error.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "circuit/dump.hpp"
#include "util/diag.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

using namespace otft;

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: diag_replay DUMP.json\n"
                 "       diag_replay --check-diag FILE.json\n");
}

/** Bitwise double equality that treats NaN as equal to NaN. */
bool
sameBits(double a, double b)
{
    if (std::isnan(a) && std::isnan(b))
        return true;
    return a == b && std::signbit(a) == std::signbit(b);
}

int
replay(const std::string &path)
{
    const auto dump = circuit::dump::readFailureDump(path);
    std::printf("dump:      %s\n", path.c_str());
    std::printf("reason:    %s\n", dump.reason.c_str());
    std::printf("context:   %s\n", dump.context.empty()
                                       ? "(unlabeled)"
                                       : dump.context.c_str());
    std::printf("solve:     %s at t = %g s (dt = %g s, scale = %g)\n",
                circuit::dump::toString(dump.kind), dump.time, dump.dt,
                dump.sourceScale);
    std::printf("circuit:   %zu nodes, %zu FETs, %zu R, %zu C, "
                "%zu V, %zu I\n",
                dump.circuit.numNodes(), dump.circuit.fets().size(),
                dump.circuit.resistors().size(),
                dump.circuit.capacitors().size(),
                dump.circuit.voltageSources().size(),
                dump.circuit.currentSources().size());

    const auto result = circuit::dump::replayDump(dump);
    std::printf("\nreplay:    %s after %zu iteration(s)\n",
                result.converged ? "converged" : "failed",
                result.trace.size());

    // The dump's ring holds the last <= 64 iterations before the
    // failure; line it up against the tail of the full replay trace.
    const std::size_t n_dump = dump.trace.size();
    const std::size_t n_replay = result.trace.size();
    const std::size_t offset =
        n_replay >= n_dump ? n_replay - n_dump : 0;

    std::printf("\n%6s  %23s  %23s  %6s  %s\n", "iter", "residual",
                "max_update", "mode", "match");
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < n_replay; ++i) {
        const auto &r = result.trace[i];
        const char *match = "";
        if (i >= offset && n_dump > 0) {
            const auto &d = dump.trace[i - offset];
            const bool ok = d.iteration == r.iteration &&
                            sameBits(d.residualNorm, r.residualNorm) &&
                            sameBits(d.maxUpdate, r.maxUpdate) &&
                            d.chord == r.chord;
            match = ok ? "ok" : "MISMATCH";
            if (!ok)
                ++mismatches;
        }
        std::printf("%6d  %23.17g  %23.17g  %6s  %s\n", r.iteration,
                    r.residualNorm, r.maxUpdate,
                    r.chord ? "chord" : "full", match);
    }

    if (n_dump == 0) {
        // Dumps written outside the Newton kernel (e.g. the transient
        // LTE budget guard) carry no iteration ring; there is nothing
        // to cross-check, so report the replay outcome only.
        std::printf("\nno recorded trace in dump; replay ran %zu "
                    "iteration(s)\n",
                    n_replay);
        return 0;
    }
    if (n_replay < n_dump) {
        std::printf("\nDIVERGED: replay ran %zu iteration(s), dump "
                    "recorded %zu\n",
                    n_replay, n_dump);
        return 1;
    }
    if (mismatches > 0) {
        std::printf("\nDIVERGED: %zu of %zu overlapping iteration(s) "
                    "differ\n",
                    mismatches, n_dump);
        return 1;
    }
    std::printf("\nREPRODUCED: all %zu overlapping iteration(s) match "
                "bit for bit\n",
                n_dump);
    return 0;
}

int
checkDiag(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("diag_replay: cannot read ", path);
    std::stringstream buffer;
    buffer << is.rdbuf();
    const json::Value doc = json::parse(buffer.str());
    if (!doc.isObject() || doc.string("schema") != diag::diagSchema) {
        std::fprintf(stderr,
                     "diag_replay: %s is not an %s document\n",
                     path.c_str(), diag::diagSchema);
        return 1;
    }
    if (!doc.has("contexts") || !doc.at("contexts").isObject()) {
        std::fprintf(stderr, "diag_replay: %s lacks a contexts map\n",
                     path.c_str());
        return 1;
    }
    std::uint64_t solves = 0;
    for (const auto &[name, counts] : doc.at("contexts").asObject()) {
        if (!counts.isObject()) {
            std::fprintf(stderr,
                         "diag_replay: context '%s' is not an object\n",
                         name.c_str());
            return 1;
        }
        for (const auto &[counter, n] : counts.asObject()) {
            if (!n.isNumber()) {
                std::fprintf(stderr,
                             "diag_replay: context '%s' count '%s' is "
                             "not a number\n",
                             name.c_str(), counter.c_str());
                return 1;
            }
        }
        solves += static_cast<std::uint64_t>(
            counts.number("circuit.newton.solves"));
    }
    const std::size_t dumps =
        doc.has("dumps") ? doc.at("dumps").asArray().size() : 0;
    std::printf("diag ok: %zu context(s), %llu solve(s), %zu dump(s)\n",
                doc.at("contexts").asObject().size(),
                static_cast<unsigned long long>(solves), dumps);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc == 3 && std::strcmp(argv[1], "--check-diag") == 0)
            return checkDiag(argv[2]);
        if (argc == 2 && argv[1][0] != '-')
            return replay(argv[1]);
        usage();
        return 2;
    } catch (const FatalError &) {
        return 2;
    }
}
