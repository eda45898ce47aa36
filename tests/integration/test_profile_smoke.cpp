/**
 * @file
 * Profiler smoke test (ctest label: profile_smoke, not tier-1): runs
 * the real nldm_characterize scenarios under `--profile` and checks
 * the end-to-end artifacts — a non-empty folded collapsed-stack file
 * whose hottest stack names solver/characterization work and keeps
 * device evaluation out of the LU frame, and a parseable otft-prof-2
 * footer section. Wall-clock sensitive by
 * construction, hence the opt-in label (scripts/verify.sh --profile).
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenarios.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/perf_report.hpp"
#include "util/profiler.hpp"

namespace otft {
namespace {

class ProfileSmoke : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        setQuiet(true);
        artifactDir = ::testing::TempDir();

        perf::ScenarioSuite suite;
        bench::registerAllScenarios(suite);
        perf::SuiteOptions options;
        // The profiler samples only the timed reps. One rep of the
        // fanned-out variant is a few milliseconds, short enough to
        // finish before the sampler's first tick; twenty give each
        // collection tens of milliseconds of work.
        options.reps = 20;
        options.warmup = 0;
        options.filter = "liberty.nldm_characterize";
        options.profile = true;
        options.profileDir = artifactDir;
        options.profilePeriodUs = 200;
        results = suite.run(options);
    }

    static void
    TearDownTestSuite()
    {
        setQuiet(false);
    }

    static std::string
    foldedPath(const std::string &stem)
    {
        return artifactDir + "/PROF_" + stem + ".folded";
    }

    static std::string artifactDir;
    static std::vector<perf::ScenarioResult> results;
};

std::string ProfileSmoke::artifactDir;
std::vector<perf::ScenarioResult> ProfileSmoke::results;

TEST_F(ProfileSmoke, ScenariosStillProduceResultsWhenProfiled)
{
    // The serial and fanned-out variants both match the substring
    // filter.
    ASSERT_EQ(results.size(), 2u);
    for (const auto &r : results) {
        SCOPED_TRACE(r.name);
        EXPECT_GT(r.points, 0u);
        EXPECT_GT(r.timing.minS, 0.0);
    }
}

TEST_F(ProfileSmoke, FoldedArtifactNamesSolverWork)
{
    std::ifstream is(foldedPath("liberty_nldm_characterize"));
    ASSERT_TRUE(is) << "missing folded artifact";
    const auto stacks = prof::parseFolded(is);
    ASSERT_FALSE(stacks.empty());

    const prof::FoldedStack *hottest = &stacks.front();
    bool solver_seen = false;
    for (const auto &s : stacks) {
        EXPECT_GT(s.count, 0u);
        const std::string root = s.stack.substr(0, s.stack.find(';'));
        EXPECT_TRUE(root == "main" || root == "worker") << s.stack;
        if (s.count > hottest->count)
            hottest = &s;
        if (s.stack.find("mna.") != std::string::npos ||
            s.stack.find("transient.") != std::string::npos ||
            s.stack.find("liberty.") != std::string::npos)
            solver_seen = true;
    }
    EXPECT_TRUE(solver_seen)
        << "no solver/characterization frame in any stack";
    // The dominant stack must be attributed below a labeled frame,
    // not just the bare thread root.
    EXPECT_NE(hottest->stack.find(';'), std::string::npos)
        << hottest->stack;
}

TEST_F(ProfileSmoke, SolverFramesSeparateDeviceEvaluationFromLu)
{
    // mna.lu_factor covers only the LU factorization, so nothing may
    // be sampled below it; FET evaluation has its own frame inside
    // the Newton solve.
    std::ifstream is(foldedPath("liberty_nldm_characterize"));
    ASSERT_TRUE(is) << "missing folded artifact";
    bool fet_eval_under_newton = false;
    for (const auto &s : prof::parseFolded(is)) {
        std::vector<std::string> frames;
        std::size_t begin = 0;
        while (true) {
            const std::size_t end = s.stack.find(';', begin);
            frames.push_back(s.stack.substr(begin, end - begin));
            if (end == std::string::npos)
                break;
            begin = end + 1;
        }
        const auto lu =
            std::find(frames.begin(), frames.end(), "mna.lu_factor");
        if (lu != frames.end()) {
            EXPECT_EQ(lu + 1, frames.end()) << s.stack;
        }
        const auto newton =
            std::find(frames.begin(), frames.end(), "mna.solve_newton");
        if (std::find(newton, frames.end(), "device.fet_eval") !=
            frames.end())
            fet_eval_under_newton = true;
    }
    EXPECT_TRUE(fet_eval_under_newton)
        << "no device.fet_eval frame below mna.solve_newton";
}

TEST_F(ProfileSmoke, ParallelVariantWritesItsOwnArtifact)
{
    std::ifstream is(foldedPath("liberty_nldm_characterize_par"));
    ASSERT_TRUE(is) << "missing folded artifact";
    const auto stacks = prof::parseFolded(is);
    EXPECT_FALSE(stacks.empty());
}

TEST_F(ProfileSmoke, FooterSectionParsesAsOtftProf2)
{
    // The profiler keeps the last collection (the _par scenario).
    auto &profiler = prof::Profiler::instance();
    EXPECT_FALSE(profiler.running());
    const json::Value doc = json::parse(profiler.footerSection(5));
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.string("schema"), prof::profSchema);
    EXPECT_GT(doc.number("samples"), 0.0);
    ASSERT_TRUE(doc.has("top"));
    EXPECT_FALSE(doc.at("top").asArray().empty());
}

} // namespace
} // namespace otft
