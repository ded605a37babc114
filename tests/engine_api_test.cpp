/**
 * @file
 * Tests for the engine-run API (core/engine_api.hpp): request validation
 * and its exact error strings, the equivalences (derived vs named engine,
 * ExperimentRunner, registry engines, trace order), the telemetry block,
 * and the per-run override fields.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/engine_api.hpp"
#include "harness.hpp"
#include "workload/session_source.hpp"

namespace nbos::core {
namespace {

/** Run @p request and return the what() of the expected throw. */
std::string
run_error(const RunRequest& request)
{
    try {
        run(request);
    } catch (const std::invalid_argument& error) {
        return error.what();
    }
    ADD_FAILURE() << "core::run did not throw";
    return {};
}

TEST(RunRequestValidationTest, RequiresExactlyOneInput)
{
    const auto trace = test::tiny_trace();
    workload::TraceSessionSource source(trace);

    RunRequest neither;
    EXPECT_EQ(run_error(neither),
              "RunRequest: set exactly one of trace and source");

    RunRequest both;
    both.trace = &trace;
    both.source = &source;
    EXPECT_EQ(run_error(both),
              "RunRequest: set exactly one of trace and source");
}

TEST(RunRequestValidationTest, UnknownEngineKeepsTheLegacyMessage)
{
    const auto trace = test::tiny_trace();
    RunRequest request;
    request.engine = "no-such-engine";
    request.trace = &trace;
    // The exact string the ExperimentRunner has always surfaced.
    EXPECT_EQ(run_error(request), "unknown engine 'no-such-engine'");
}

TEST(RunRequestValidationTest, InvalidConfigNamesPlatformConfig)
{
    const auto trace = test::tiny_trace();
    RunRequest request;
    request.trace = &trace;
    request.config = test::platform_config(Policy::kReservation);
    request.config.fast_mode = true;  // baselines have no fast engine
    const std::string error = run_error(request);
    EXPECT_EQ(error.rfind("PlatformConfig: ", 0), 0u) << error;

    // The same inconsistency through a *named* engine is repaired from
    // the engine (runner semantics), so it runs instead of throwing.
    request.engine = kEngineReservation;
    EXPECT_NO_THROW(run(request));
}

TEST(RunRequestValidationTest, OnlyNotebookEnginesStream)
{
    const auto trace = test::tiny_trace();
    workload::TraceSessionSource source(trace);
    RunRequest request;
    request.engine = kEngineBatch;
    request.source = &source;
    EXPECT_EQ(run_error(request),
              "engine 'batch' has no streamed driver");
}

TEST(RunRequestValidationTest, ChaosOverrideIsValidatedAgainstTheEngine)
{
    const auto trace = test::tiny_trace();
    RunRequest request;
    request.engine = kEngineFast;
    request.trace = &trace;
    chaos::ChaosConfig chaos;
    chaos.enabled = true;
    request.chaos = chaos;
    // chaos + the analytic engine is the config error validate_config
    // already rejects; the override must flow through that check.
    const std::string error = run_error(request);
    EXPECT_EQ(error.rfind("PlatformConfig: ", 0), 0u) << error;
    EXPECT_NE(error.find("chaos"), std::string::npos) << error;
}

/** Scheduler values the NotebookOS engines divide by, re-arm a periodic
 *  service or a retry on, cannot place a kernel with, or whose Raft
 *  timings flood the event queue or collapse the election window are
 *  config errors on both engines, named after the field — never a crash,
 *  a hang or a silent fallback. */
TEST(RunRequestValidationTest, RejectsSchedulerValuesTheEnginesCannotRun)
{
    const auto trace = test::tiny_trace(4);
    using Apply = void (*)(sched::SchedulerConfig&);
    const std::pair<const char*, Apply> cases[] = {
        {"scheduler.autoscale_interval",
         [](sched::SchedulerConfig& c) { c.autoscale_interval = 0; }},
        {"scheduler.health_check_interval",
         [](sched::SchedulerConfig& c) { c.health_check_interval = 0; }},
        {"scheduler.prewarm_check_interval",
         [](sched::SchedulerConfig& c) { c.prewarm_check_interval = 0; }},
        {"scheduler.kernel.replica_count",
         [](sched::SchedulerConfig& c) { c.kernel.replica_count = 0; }},
        {"scheduler.kernel.proposal_retry",
         [](sched::SchedulerConfig& c) { c.kernel.proposal_retry = 0; }},
        {"scheduler.kernel.raft.heartbeat_interval",
         [](sched::SchedulerConfig& c) {
             c.kernel.raft.heartbeat_interval = 0;
         }},
        {"scheduler.kernel.raft.election_timeout_min",
         [](sched::SchedulerConfig& c) {
             c.kernel.raft.election_timeout_min = 0;
             c.kernel.raft.election_timeout_max = 0;
         }},
        {"scheduler.kernel.raft.election_timeout_max",
         [](sched::SchedulerConfig& c) {
             c.kernel.raft.election_timeout_max =
                 c.kernel.raft.election_timeout_min - 1;
         }},
        {"scheduler.migration_retry",
         [](sched::SchedulerConfig& c) { c.migration_retry = 0; }},
    };
    for (const auto& [field, apply] : cases) {
        for (const char* engine : {kEnginePrototype, kEngineFast}) {
            SCOPED_TRACE(std::string(field) + " on " + engine);
            RunRequest request;
            request.engine = engine;
            request.trace = &trace;
            request.config = test::platform_config(Policy::kNotebookOS);
            apply(request.config.scheduler);
            const std::string error = run_error(request);
            const std::string prefix =
                "PlatformConfig: " + std::string(field) + " ";
            EXPECT_EQ(error.rfind(prefix, 0), 0u) << error;
        }
    }
}

/** A source that yields the sessions it is given, in the given order. */
class ListSource final : public workload::SessionSource
{
  public:
    ListSource(std::vector<workload::SessionSpec> sessions,
               sim::Time makespan)
        : sessions_(std::move(sessions)), makespan_(makespan)
    {
    }

    const std::string& trace_name() const override { return name_; }
    sim::Time makespan() const override { return makespan_; }

    bool next(workload::SessionSpec& out) override
    {
        if (next_ == sessions_.size()) {
            return false;
        }
        out = sessions_[next_++];
        return true;
    }

  private:
    std::vector<workload::SessionSpec> sessions_;
    sim::Time makespan_;
    std::string name_ = "list";
    std::size_t next_ = 0;
};

/** Under least_loaded the admission order decides the route, so a source
 *  must yield sessions in increasing (start_time, id) order: ids 9 then 3
 *  at one start time are rejected on both engines. */
TEST(RunRequestValidationTest, RejectsASourceOutOfIdOrderAtOneStartTime)
{
    const auto trace = test::tiny_trace(2);
    for (const char* engine : {kEnginePrototype, kEngineFast}) {
        SCOPED_TRACE(engine);
        std::vector<workload::SessionSpec> sessions = trace.sessions;
        const sim::Time start =
            std::min(sessions[0].start_time, sessions[1].start_time);
        sessions[0].id = 9;
        sessions[1].id = 3;
        for (workload::SessionSpec& session : sessions) {
            session.start_time = start;
            for (workload::CellTask& task : session.tasks) {
                task.session = session.id;
            }
        }
        ListSource source(std::move(sessions), trace.makespan);
        RunRequest request;
        request.engine = engine;
        request.source = &source;
        request.routing = sched::RoutingPolicyKind::kLeastLoaded;
        request.shards = 2;
        EXPECT_EQ(run_error(request),
                  "streamed session source is not sorted by "
                  "(start_time, id)");
    }
}

TEST(RunApiEquivalenceTest, DerivedEngineMatchesTheNamedEngine)
{
    const auto trace = test::tiny_trace();
    for (const bool fast : {false, true}) {
        RunRequest request;
        request.config = test::platform_config(Policy::kNotebookOS, 17, fast);
        request.trace = &trace;
        const RunResponse derived = run(request);

        request.engine = engine_name(Policy::kNotebookOS, fast);
        test::expect_results_identical(derived.results, run(request).results);
    }
}

TEST(RunApiEquivalenceTest, MatchesTheRunnerPathForNamedEngines)
{
    const auto trace = test::tiny_trace();
    ExperimentSpec spec;
    spec.engine = kEngineLcp;
    spec.trace = &trace;
    spec.config = PlatformConfig::prototype_defaults();
    spec.seed = 29;
    const auto outcomes = ExperimentRunner().run({spec});
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;

    RunRequest request;
    request.engine = kEngineLcp;
    request.trace = &trace;
    request.config = PlatformConfig::prototype_defaults();
    request.seed = 29;
    const RunResponse response = run(request);
    test::expect_results_identical(outcomes[0].results, response.results);
}

TEST(RunApiEquivalenceTest, RegistryEnginesRunTheWindowedDrivers)
{
    const auto trace = test::tiny_trace(6);
    for (const char* name : {kEnginePrototype, kEngineFast}) {
        SCOPED_TRACE(name);
        const PlatformConfig config = PlatformConfig::prototype_defaults();
        const ExperimentResults direct =
            EngineRegistry::instance().create(name)->run(trace, config);

        RunRequest request;
        request.engine = name;
        request.config = config;
        request.trace = &trace;
        test::expect_results_identical(direct, run(request).results);
    }
}

/** A trace whose sessions are stored out of (start_time, id) order — the
 *  scale benches hash each session's start time from its id — runs
 *  exactly like its sorted copy on both NotebookOS engines. */
TEST(RunApiEquivalenceTest, ShuffledTraceMatchesItsSortedCopy)
{
    const auto sorted = test::tiny_trace(10);
    workload::Trace shuffled = sorted;
    sim::Rng rng = test::seeded_rng(3);
    for (std::size_t i = shuffled.sessions.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
        std::swap(shuffled.sessions[i - 1], shuffled.sessions[j]);
    }
    ASSERT_FALSE(std::is_sorted(
        shuffled.sessions.begin(), shuffled.sessions.end(),
        [](const workload::SessionSpec& a, const workload::SessionSpec& b) {
            return a.start_time < b.start_time;
        }));

    for (const char* name : {kEnginePrototype, kEngineFast}) {
        SCOPED_TRACE(name);
        RunRequest request;
        request.engine = name;
        request.config = PlatformConfig::prototype_defaults();
        request.shards = 2;
        request.trace = &sorted;
        const RunResponse want = run(request);
        request.trace = &shuffled;
        test::expect_results_identical(want.results, run(request).results);
    }
}

/** Every NotebookOS run fills the telemetry block, whichever engine,
 *  input kind, and shard count. */
TEST(RunApiTelemetryTest, NotebookEnginesReportPerShardTelemetry)
{
    const auto trace = test::tiny_trace(6);
    for (const char* name : {kEnginePrototype, kEngineFast}) {
        for (const bool streamed : {false, true}) {
            for (const std::int32_t shards : {1, 2}) {
                SCOPED_TRACE(std::string(name) +
                             (streamed ? " source" : " trace") +
                             " shards=" + std::to_string(shards));
                workload::TraceSessionSource source(trace);
                RunRequest request;
                request.engine = name;
                request.config = PlatformConfig::prototype_defaults();
                request.shards = shards;
                if (streamed) {
                    request.source = &source;
                } else {
                    request.trace = &trace;
                }
                const RunResponse response = run(request);
                const auto count = static_cast<std::size_t>(shards);
                ASSERT_EQ(response.shard_events.size(), count);
                ASSERT_EQ(response.shard_busy_seconds.size(), count);
                EXPECT_EQ(response.events_executed,
                          std::accumulate(response.shard_events.begin(),
                                          response.shard_events.end(),
                                          std::uint64_t{0}));
                EXPECT_GT(response.events_executed, 0u);
                EXPECT_EQ(response.sessions_rebalanced, 0u);
            }
        }
    }
}

TEST(RunApiEquivalenceTest, SeedOverrideBeatsTheConfigSeed)
{
    const auto trace = test::tiny_trace();

    RunRequest request;
    request.engine = kEngineFast;
    request.trace = &trace;
    request.config = test::platform_config(Policy::kNotebookOS, 999, true);
    request.seed = 17;
    const RunResponse overridden = run(request);

    const ExperimentResults direct = test::run_policy(
        trace, Policy::kNotebookOS, 17, /*fast=*/true);
    test::expect_results_identical(direct, overridden.results);
}

}  // namespace
}  // namespace nbos::core
