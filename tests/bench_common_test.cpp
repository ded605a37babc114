/**
 * @file
 * Tests for the shared bench helpers (bench/bench_common.hpp): the
 * NBOS_BENCH_POLICIES filter, explicit skip marking in run_policies, and
 * NBOS_BENCH_SEEDS parsing. The bench layer is plain inline helpers, so
 * the suite includes it directly.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "bench_common.hpp"
#include "harness.hpp"

namespace nbos::bench {
namespace {

/** Scoped environment variable: sets on construction, restores the
 *  previous value (or unsets) on destruction, so suites stay isolated. */
class ScopedEnv
{
  public:
    ScopedEnv(const char* name, const char* value) : name_(name)
    {
        const char* previous = std::getenv(name);
        had_previous_ = previous != nullptr;
        if (had_previous_) {
            previous_ = previous;
        }
        if (value != nullptr) {
            ::setenv(name, value, 1);
        } else {
            ::unsetenv(name);
        }
    }

    ~ScopedEnv()
    {
        if (had_previous_) {
            ::setenv(name_.c_str(), previous_.c_str(), 1);
        } else {
            ::unsetenv(name_.c_str());
        }
    }

    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

  private:
    std::string name_;
    std::string previous_;
    bool had_previous_ = false;
};

TEST(PolicyFilterTest, EmptyFilterAllowsEverything)
{
    EXPECT_TRUE(policy_filter_allows(nullptr, "notebookos-fast"));
    EXPECT_TRUE(policy_filter_allows("", "reservation"));
}

TEST(PolicyFilterTest, MatchesEngineName)
{
    EXPECT_TRUE(policy_filter_allows("notebookos-fast", "notebookos-fast"));
    EXPECT_FALSE(policy_filter_allows("notebookos-fast", "reservation"));
}

TEST(PolicyFilterTest, MatchesPolicyNameForBothEngines)
{
    // "notebookos" is the policy name shared by the prototype and fast
    // engines: the token must enable both.
    EXPECT_TRUE(
        policy_filter_allows("notebookos", "notebookos", "notebookos"));
    EXPECT_TRUE(policy_filter_allows("notebookos", "notebookos-fast",
                                     "notebookos"));
    EXPECT_FALSE(policy_filter_allows("notebookos", "batch", "batch"));
}

TEST(PolicyFilterTest, TrimsWhitespaceAroundTokens)
{
    EXPECT_TRUE(policy_filter_allows(" batch ,\treservation", "batch"));
    EXPECT_TRUE(
        policy_filter_allows(" batch ,\treservation ", "reservation"));
    EXPECT_FALSE(policy_filter_allows(" batch , reservation ", "bat"));
}

TEST(PolicyFilterTest, UnknownTokensMatchNothing)
{
    EXPECT_FALSE(policy_filter_allows("nope,also-nope", "notebookos",
                                      "notebookos"));
}

TEST(BenchOptionsTest, DefaultsWhenEverythingUnset)
{
    BenchOptions options;
    std::string error;
    ASSERT_TRUE(parse_bench_options(BenchEnv{}, options, error)) << error;
    EXPECT_FALSE(options.smoke);
    EXPECT_TRUE(options.profile.empty());
    EXPECT_EQ(options.seeds, 1u);
    EXPECT_EQ(options.shards, 1);
    EXPECT_EQ(options.routing, sched::RoutingPolicyKind::kStaticHash);
    EXPECT_TRUE(options.policies.empty());
}

TEST(BenchOptionsTest, ParsesEveryKnob)
{
    BenchEnv env;
    env.smoke = "1";
    env.profile = workload::kProfileFlashCrowd;
    env.seeds = "8";
    env.shards = "4";
    env.routing = "rebalance";
    env.policies = "notebookos,batch";
    env.chaos_seed = "18446744073709551615";
    env.chaos_rate = "2.5";
    env.chaos_record = "/tmp/run.sched";
    env.chaos_replay = "/tmp/other.sched";
    BenchOptions options;
    std::string error;
    ASSERT_TRUE(parse_bench_options(env, options, error)) << error;
    EXPECT_TRUE(options.smoke);
    EXPECT_EQ(options.profile, workload::kProfileFlashCrowd);
    EXPECT_EQ(options.seeds, 8u);
    EXPECT_EQ(options.shards, 4);
    EXPECT_EQ(options.routing, sched::RoutingPolicyKind::kRebalance);
    EXPECT_EQ(options.policies, "notebookos,batch");
    EXPECT_EQ(options.chaos_seed, 18446744073709551615ULL);
    EXPECT_EQ(options.chaos_rate, 2.5);
    EXPECT_EQ(options.chaos_record, "/tmp/run.sched");
    EXPECT_EQ(options.chaos_replay, "/tmp/other.sched");

    // A zero rate (no faults) and a plain seed are valid too; unset chaos
    // knobs keep the defaults: seed 0 (derived), rate 1, no schedule file.
    env.chaos_seed = "12";
    env.chaos_rate = "0";
    ASSERT_TRUE(parse_bench_options(env, options, error)) << error;
    EXPECT_EQ(options.chaos_seed, 12u);
    EXPECT_EQ(options.chaos_rate, 0.0);
    ASSERT_TRUE(parse_bench_options(BenchEnv{}, options, error)) << error;
    EXPECT_EQ(options.chaos_seed, 0u);
    EXPECT_EQ(options.chaos_rate, 1.0);
    EXPECT_TRUE(options.chaos_record.empty());
    EXPECT_TRUE(options.chaos_replay.empty());
}

TEST(BenchOptionsTest, EmptyValuesMeanUnset)
{
    BenchEnv env;
    env.smoke = "";
    env.profile = "";
    env.seeds = "";
    env.shards = "";
    env.routing = "";
    BenchOptions options;
    std::string error;
    ASSERT_TRUE(parse_bench_options(env, options, error)) << error;
    EXPECT_FALSE(options.smoke);
    EXPECT_EQ(options.seeds, 1u);
    EXPECT_EQ(options.shards, 1);
}

TEST(BenchOptionsTest, MalformedCountsAreRejectedWithTheVariableNamed)
{
    // Historically a bad NBOS_BENCH_SHARDS silently atoi'd to 1 and a bad
    // seed count fell back to single-seed; both are hard errors now.
    for (const char* bad : {"0", "-3", "abc", "8x", "9999"}) {
        BenchEnv env;
        env.shards = bad;
        BenchOptions options;
        std::string error;
        EXPECT_FALSE(parse_bench_options(env, options, error))
            << "value '" << bad << "'";
        EXPECT_NE(error.find("NBOS_BENCH_SHARDS"), std::string::npos)
            << error;
        EXPECT_NE(error.find(bad), std::string::npos) << error;
    }
    BenchEnv env;
    env.seeds = "65";
    BenchOptions options;
    std::string error;
    EXPECT_FALSE(parse_bench_options(env, options, error));
    EXPECT_NE(error.find("NBOS_BENCH_SEEDS"), std::string::npos) << error;

    // The chaos knobs used to swallow parse errors: a bad seed or rate ran
    // the default plan, and "12abc" ran as seed 12.
    for (const char* bad : {"abc", "12abc", "-3", " 7", "1.5",
                            "18446744073709551616"}) {
        BenchEnv chaos;
        chaos.chaos_seed = bad;
        EXPECT_FALSE(parse_bench_options(chaos, options, error))
            << "value '" << bad << "'";
        EXPECT_NE(error.find("NBOS_CHAOS_SEED"), std::string::npos) << error;
        EXPECT_NE(error.find(bad), std::string::npos) << error;
    }
    for (const char* bad : {"-3", "fast", "2x", "inf", "nan", "1e999"}) {
        BenchEnv chaos;
        chaos.chaos_rate = bad;
        EXPECT_FALSE(parse_bench_options(chaos, options, error))
            << "value '" << bad << "'";
        EXPECT_NE(error.find("NBOS_CHAOS_RATE"), std::string::npos) << error;
        EXPECT_NE(error.find(bad), std::string::npos) << error;
    }
}

TEST(BenchOptionsTest, UnknownProfileAndRoutingAreRejected)
{
    {
        BenchEnv env;
        env.profile = "no-such-profile";
        BenchOptions options;
        std::string error;
        EXPECT_FALSE(parse_bench_options(env, options, error));
        EXPECT_NE(error.find("NBOS_BENCH_PROFILE"), std::string::npos)
            << error;
        // The error lists the registered names, so the fix is in the
        // message.
        EXPECT_NE(error.find(workload::kProfileFlashCrowd),
                  std::string::npos)
            << error;
    }
    {
        BenchEnv env;
        env.routing = "round-robin";
        BenchOptions options;
        std::string error;
        EXPECT_FALSE(parse_bench_options(env, options, error));
        EXPECT_NE(error.find("NBOS_BENCH_ROUTING"), std::string::npos)
            << error;
    }
}

TEST(BenchOptionsTest, HelpersReadTheValidatedOptions)
{
    const ScopedEnv seeds("NBOS_BENCH_SEEDS", "8");
    const ScopedEnv shards("NBOS_BENCH_SHARDS", "4");
    const ScopedEnv routing("NBOS_BENCH_ROUTING", "least_loaded");
    EXPECT_EQ(bench_seeds(), 8u);
    EXPECT_EQ(bench_shards(), 4);
    EXPECT_EQ(bench_routing(), sched::RoutingPolicyKind::kLeastLoaded);
}

TEST(RunPoliciesTest, FilteredEnginesAreExplicitlyMarkedSkipped)
{
    const ScopedEnv filter("NBOS_BENCH_POLICIES", "reservation");
    const ScopedEnv seeds("NBOS_BENCH_SEEDS", nullptr);
    const auto trace = test::tiny_trace();
    const auto results = run_policies(
        trace, {{core::Policy::kReservation}, {core::Policy::kBatch}});
    ASSERT_EQ(results.size(), 2u);

    EXPECT_FALSE(results[0].skipped);
    EXPECT_FALSE(results[0].tasks.empty());

    // The skipped row is explicit — not an all-zero run masquerading as a
    // measurement — and keeps its identifying fields.
    EXPECT_TRUE(results[1].skipped);
    EXPECT_TRUE(results[1].tasks.empty());
    EXPECT_EQ(results[1].policy, core::Policy::kBatch);
    EXPECT_EQ(results[1].trace_name, trace.name);
    EXPECT_EQ(results[1].makespan, trace.makespan);
}

TEST(RunPoliciesTest, NoFilterRunsEverythingUnskipped)
{
    const ScopedEnv filter("NBOS_BENCH_POLICIES", nullptr);
    const ScopedEnv seeds("NBOS_BENCH_SEEDS", nullptr);
    const auto trace = test::tiny_trace();
    const auto results = run_policies(
        trace, {{core::Policy::kReservation}, {core::Policy::kBatch}});
    ASSERT_EQ(results.size(), 2u);
    for (const PolicyResult& result : results) {
        EXPECT_FALSE(result.skipped);
        EXPECT_FALSE(result.tasks.empty());
    }
}

TEST(RunPoliciesTest, SweepModeKeepsBaseSeedRowsIdentical)
{
    const ScopedEnv filter("NBOS_BENCH_POLICIES", nullptr);
    const auto trace = test::tiny_trace();
    std::vector<PolicyResult> single;
    {
        const ScopedEnv seeds("NBOS_BENCH_SEEDS", nullptr);
        single = run_policies(trace, {{core::Policy::kReservation}});
    }
    std::vector<PolicyResult> swept;
    {
        const ScopedEnv seeds("NBOS_BENCH_SEEDS", "3");
        swept = run_policies(trace, {{core::Policy::kReservation}});
    }
    ASSERT_EQ(single.size(), 1u);
    ASSERT_EQ(swept.size(), 1u);
    // The figure tables read the base-seed row; a sweep only adds the
    // statistics block, it never changes the single-seed numbers.
    test::expect_results_identical(single[0], swept[0]);
}

}  // namespace
}  // namespace nbos::bench
