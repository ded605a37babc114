/**
 * @file
 * Tests for the pluggable engine API: EngineRegistry round-trips, name
 * parsing, PlatformConfig validation, and the concurrent
 * ExperimentRunner — including the parallel-vs-serial bit-identity
 * guarantee that extends tests/determinism_test.cpp's contract.
 */
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>

#include "core/engine.hpp"
#include "core/platform.hpp"
#include "core/runner.hpp"
#include "harness.hpp"

namespace nbos::core {
namespace {

using test::tiny_trace;

TEST(EngineRegistryTest, BuiltinsResolvableByName)
{
    auto& registry = EngineRegistry::instance();
    for (const char* name :
         {kEngineReservation, kEngineBatch, kEngineLcp, kEnginePrototype,
          kEngineFast}) {
        SCOPED_TRACE(name);
        EXPECT_TRUE(registry.contains(name));
        const auto engine = registry.create(name);
        ASSERT_NE(engine, nullptr);
        // Round-trip: the engine reports the name it is registered under.
        EXPECT_EQ(engine->name(), name);
    }
}

TEST(EngineRegistryTest, EveryRegisteredEngineRoundTrips)
{
    auto& registry = EngineRegistry::instance();
    const auto names = registry.names();
    EXPECT_GE(names.size(), 5u);
    for (const std::string& name : names) {
        SCOPED_TRACE(name);
        const auto engine = registry.create(name);
        ASSERT_NE(engine, nullptr);
        EXPECT_EQ(engine->name(), name);
        // Every engine maps to a valid policy name.
        EXPECT_TRUE(policy_from_string(to_string(engine->policy()))
                        .has_value());
    }
}

TEST(EngineRegistryTest, UnknownNameReturnsNull)
{
    EXPECT_EQ(EngineRegistry::instance().create("no-such-engine"),
              nullptr);
    EXPECT_FALSE(EngineRegistry::instance().contains("no-such-engine"));
}

TEST(EngineRegistryTest, DuplicateAndEmptyRegistrationsRejected)
{
    auto& registry = EngineRegistry::instance();
    EXPECT_FALSE(registry.register_engine(kEngineBatch, [] {
        return std::unique_ptr<PolicyEngine>();
    }));
    EXPECT_FALSE(registry.register_engine("", [] {
        return std::unique_ptr<PolicyEngine>();
    }));
    EXPECT_FALSE(registry.register_engine("null-factory", nullptr));
    EXPECT_FALSE(registry.contains("null-factory"));
}

TEST(EngineRegistryTest, CustomEngineRegistersAndRuns)
{
    // A trivial engine: completes every task instantly at submit time.
    class InstantEngine : public PolicyEngine
    {
      public:
        std::string name() const override { return "instant-test"; }
        Policy policy() const override { return Policy::kReservation; }
        ExperimentResults
        run(const workload::Trace& trace,
            const PlatformConfig&) const override
        {
            ExperimentResults results;
            results.policy = policy();
            results.trace_name = trace.name;
            results.makespan = trace.makespan;
            for (const auto& session : trace.sessions) {
                for (const auto& task : session.tasks) {
                    TaskOutcome outcome;
                    outcome.session = session.id;
                    outcome.seq = task.seq;
                    outcome.is_gpu = task.is_gpu;
                    outcome.gpus = session.resources.gpus;
                    outcome.submit = task.submit_time;
                    outcome.exec_start = task.submit_time;
                    outcome.exec_end = task.submit_time + task.duration;
                    outcome.reply = outcome.exec_end;
                    results.tasks.push_back(outcome);
                }
            }
            return results;
        }
    };

    auto& registry = EngineRegistry::instance();
    if (!registry.contains("instant-test")) {
        ASSERT_TRUE(registry.register_engine("instant-test", [] {
            return std::make_unique<InstantEngine>();
        }));
    }

    const auto trace = tiny_trace(4, 2 * sim::kHour);
    ExperimentSpec spec;
    spec.engine = "instant-test";
    spec.trace = &trace;
    const auto outcomes = ExperimentRunner(2).run({spec});
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_EQ(outcomes[0].results.tasks.size(), trace.task_count());
    EXPECT_EQ(outcomes[0].results.aborted_count(), 0u);
}

TEST(PolicyNameTest, FromStringRoundTrips)
{
    for (const Policy policy :
         {Policy::kReservation, Policy::kBatch, Policy::kNotebookOS,
          Policy::kNotebookOSLCP}) {
        const auto parsed = policy_from_string(to_string(policy));
        ASSERT_TRUE(parsed.has_value()) << to_string(policy);
        EXPECT_EQ(*parsed, policy);
    }
    EXPECT_FALSE(policy_from_string("no-such-policy").has_value());
    EXPECT_FALSE(policy_from_string("").has_value());
}

TEST(PolicyNameTest, EngineNameCoversEveryPolicy)
{
    EXPECT_STREQ(engine_name(Policy::kReservation), kEngineReservation);
    EXPECT_STREQ(engine_name(Policy::kBatch), kEngineBatch);
    EXPECT_STREQ(engine_name(Policy::kNotebookOSLCP), kEngineLcp);
    EXPECT_STREQ(engine_name(Policy::kNotebookOS, false),
                 kEnginePrototype);
    EXPECT_STREQ(engine_name(Policy::kNotebookOS, true), kEngineFast);
}

TEST(PlatformValidationTest, FastModeWithBaselinePolicyThrows)
{
    const auto trace = tiny_trace(2, sim::kHour);
    for (const Policy policy : {Policy::kReservation, Policy::kBatch,
                                Policy::kNotebookOSLCP}) {
        SCOPED_TRACE(to_string(policy));
        PlatformConfig config;
        config.policy = policy;
        config.fast_mode = true;  // no baseline has a fast engine
        EXPECT_THROW(test::run_config(config, trace), std::invalid_argument);
    }
    EXPECT_FALSE(validate_config([] {
                     PlatformConfig config;
                     config.policy = Policy::kBatch;
                     config.fast_mode = true;
                     return config;
                 }())
                     .empty());
}

TEST(PlatformValidationTest, ValidConfigsStillRun)
{
    const auto trace = tiny_trace(2, sim::kHour);
    PlatformConfig config;
    config.policy = Policy::kNotebookOS;
    config.fast_mode = true;
    const auto results = test::run_config(config, trace);
    EXPECT_EQ(results.tasks.size(), trace.task_count());
}

TEST(ExperimentRunnerTest, UnknownEngineReportsError)
{
    const auto trace = tiny_trace(2, sim::kHour);
    ExperimentSpec spec;
    spec.engine = "no-such-engine";
    spec.trace = &trace;
    const auto outcomes = ExperimentRunner(1).run({spec});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_NE(outcomes[0].error.find("no-such-engine"),
              std::string::npos);
}

TEST(ExperimentRunnerTest, MissingTraceReportsError)
{
    ExperimentSpec spec;
    spec.engine = kEngineFast;
    const auto outcomes = ExperimentRunner(1).run({spec});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_FALSE(outcomes[0].error.empty());
}

TEST(ExperimentRunnerTest, StableOrderingAndLabels)
{
    const auto trace = tiny_trace(4, 2 * sim::kHour);
    std::vector<ExperimentSpec> specs;
    for (const char* engine :
         {kEngineFast, kEngineReservation, kEngineBatch, kEngineLcp}) {
        ExperimentSpec spec;
        spec.engine = engine;
        spec.trace = &trace;
        spec.seed = 3;
        specs.push_back(std::move(spec));
    }
    specs[0].label = "custom-label";
    const auto outcomes = ExperimentRunner(4).run(specs);
    ASSERT_EQ(outcomes.size(), specs.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_EQ(outcomes[i].index, i);
        EXPECT_EQ(outcomes[i].engine, specs[i].engine);
        EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
    }
    EXPECT_EQ(outcomes[0].label, "custom-label");
    EXPECT_EQ(outcomes[1].label, kEngineReservation);
}

TEST(ExperimentRunnerTest, ProgressCallbackSerializedAndComplete)
{
    const auto trace = tiny_trace(4, 2 * sim::kHour);
    std::vector<ExperimentSpec> specs;
    for (int seed = 1; seed <= 6; ++seed) {
        ExperimentSpec spec;
        spec.engine = kEngineFast;
        spec.trace = &trace;
        spec.seed = static_cast<std::uint64_t>(seed);
        specs.push_back(std::move(spec));
    }
    std::set<std::size_t> seen_indices;
    std::size_t calls = 0;
    std::size_t last_completed = 0;
    const auto outcomes = ExperimentRunner(3).run(
        specs, [&](const ExperimentOutcome& outcome,
                   std::size_t completed, std::size_t total) {
            // Callbacks are serialized: no locking needed in here.
            ++calls;
            EXPECT_EQ(completed, last_completed + 1);
            last_completed = completed;
            EXPECT_EQ(total, specs.size());
            EXPECT_TRUE(seen_indices.insert(outcome.index).second);
        });
    EXPECT_EQ(calls, specs.size());
    EXPECT_EQ(seen_indices.size(), specs.size());
    EXPECT_EQ(outcomes.size(), specs.size());
}

/** Same-seed specs running concurrently must not bleed state into each
 *  other: N copies of one spec all produce bit-identical results. The
 *  full parallel-vs-serial sweep over every built-in engine lives in
 *  determinism_test (RunnerParallelExecutionBitIdenticalToSerial). */
TEST(ExperimentRunnerTest, ConcurrentSameSeedRunsIdentical)
{
    const auto trace = tiny_trace(6, 2 * sim::kHour);
    std::vector<ExperimentSpec> specs;
    for (int i = 0; i < 3; ++i) {
        ExperimentSpec spec;
        spec.engine = kEngineFast;
        spec.trace = &trace;
        spec.config = PlatformConfig::prototype_defaults();
        spec.seed = 21;
        specs.push_back(std::move(spec));
    }
    const auto outcomes = ExperimentRunner(specs.size()).run(specs);
    for (std::size_t i = 1; i < outcomes.size(); ++i) {
        ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
        test::expect_results_identical(outcomes[0].results,
                                       outcomes[i].results);
    }
}

TEST(ExperimentRunnerTest, PlatformFacadeMatchesRunner)
{
    // The facade and the runner resolve to the same registered engine.
    const auto trace = tiny_trace(6, 2 * sim::kHour);
    const auto facade =
        test::run_policy(trace, Policy::kNotebookOS, 9, /*fast=*/true);
    ExperimentSpec spec;
    spec.engine = kEngineFast;
    spec.trace = &trace;
    spec.config = PlatformConfig::prototype_defaults();
    spec.seed = 9;
    const auto outcomes = ExperimentRunner(1).run({spec});
    ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
    test::expect_results_identical(facade, outcomes[0].results);
}

}  // namespace
}  // namespace nbos::core
