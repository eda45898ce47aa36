/**
 * @file
 * Extension (paper Sec. 1): Monte Carlo statistical characterization
 * of the organic library.
 *
 * The paper's flow characterizes one nominal library and reports one
 * number per figure; its own Sec. 1 says OTFT processes spread VT by
 * up to 0.5 V across a sample. This bench runs the statistical
 * re-characterization: N process samples (die-to-die + per-device
 * components) through the transistor-level NLDM flow, reduced to a
 * mean library and derated 3-sigma slow/fast corners, written as
 * liberty text files:
 *
 *     <prefix>_mean.lib  <prefix>_slow.lib  <prefix>_fast.lib
 *
 * The prefix names only the files: the libraries inside are always
 * organic_mc_mean, organic_mc_slow and organic_mc_fast.
 *
 * The serialized output is bit-identical for a fixed --mc-seed at any
 * --jobs count — `--check` re-validates files from a previous run
 * (finite tables, monotone slow >= mean >= fast) so CI can assert the
 * contract end to end.
 *
 * Flags: --mc-samples N, --mc-seed S (cli::Session), --out-prefix P,
 * --check.
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "liberty/mc_characterizer.hpp"
#include "liberty/serialize.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

using namespace otft;

int
main(int argc, char **argv)
{
    cli::Session session("mc_characterize", argc, argv,
                         cli::Footer::On);

    std::string prefix = "organic_mc";
    bool check_only = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out-prefix") == 0 &&
            i + 1 < argc) {
            prefix = argv[++i];
        } else if (std::strcmp(argv[i], "--check") == 0) {
            check_only = true;
        } else {
            fatal("mc_characterize: unknown argument '", argv[i],
                  "'");
        }
    }
    const std::string mean_path = prefix + "_mean.lib";
    const std::string slow_path = prefix + "_slow.lib";
    const std::string fast_path = prefix + "_fast.lib";

    if (check_only) {
        // Validate a previous run's artifacts without
        // re-characterizing.
        const liberty::CellLibrary mean =
            liberty::loadLibrary(mean_path);
        const liberty::CellLibrary slow =
            liberty::loadLibrary(slow_path);
        const liberty::CellLibrary fast =
            liberty::loadLibrary(fast_path);
        const std::string err =
            liberty::validateStatLibrary(mean, slow, fast);
        if (!err.empty())
            fatal("mc_characterize --check: ", err);
        std::printf("check ok: %s (%zu cells), corners finite and "
                    "monotone\n",
                    mean.name().c_str(), mean.cellNames().size());
        session.setPoints(
            static_cast<std::int64_t>(mean.cellNames().size()));
        return 0;
    }

    liberty::McConfig config;
    config.samples = session.mcSamples();
    config.seed = session.mcSeed();
    std::printf("Monte Carlo characterization: %d samples, seed %llu, "
                "%.1f-sigma corners\n\n",
                config.samples,
                static_cast<unsigned long long>(config.seed),
                liberty::cornerSigma);

    const liberty::McCharacterizer mc(config);
    const liberty::StatLibrary stat = mc.run();

    const std::string err = liberty::validateStatLibrary(
        stat.mean, stat.slow, stat.fast);
    if (!err.empty())
        fatal("mc_characterize: invalid statistical library: ", err);

    Table table({"cell", "leak mean [W]", "leak sigma", "delay sigma/mean"});
    double sigma_fraction_sum = 0.0;
    for (const liberty::CellStats &cell : stat.cells) {
        const double frac = cell.meanDelaySigmaFraction();
        sigma_fraction_sum += frac;
        table.row()
            .add(cell.name)
            .add(cell.leakageMean, 4)
            .add(cell.leakageSigma, 4)
            .add(frac, 4);
    }
    table.render(std::cout);
    const double mean_sigma_fraction =
        sigma_fraction_sum / static_cast<double>(stat.cells.size());

    liberty::saveLibrary(mean_path, stat.mean);
    liberty::saveLibrary(slow_path, stat.slow);
    liberty::saveLibrary(fast_path, stat.fast);
    std::printf("\nwrote %s, %s, %s\n", mean_path.c_str(),
                slow_path.c_str(), fast_path.c_str());
    std::printf("mean relative delay sigma: %.3f (3-sigma slow corner "
                "is ~%.0f%% slower than mean)\n",
                mean_sigma_fraction,
                100.0 * liberty::cornerSigma * mean_sigma_fraction);

    session.setPoints(static_cast<std::int64_t>(stat.cells.size()) *
                      config.samples);
    session.addFooterField("mc_samples",
                           static_cast<double>(config.samples));
    session.addFooterField("delay_sigma_fraction",
                           mean_sigma_fraction);
    return 0;
}
