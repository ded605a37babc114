/**
 * @file
 * Tests for the core platform: result helpers, trace-derived series, the
 * billing model, the baseline engines, both NotebookOS engines, and the
 * windowed driver loop they share.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "billing/billing.hpp"
#include "core/baselines.hpp"
#include "core/platform.hpp"
#include "core/results.hpp"
#include "core/window_driver.hpp"
#include "harness.hpp"
#include "sched/routing.hpp"
#include "workload/generator.hpp"
#include "workload/session_source.hpp"

namespace nbos::core {
namespace {

using sim::kHour;
using sim::kMinute;
using sim::kSecond;
using test::tiny_trace;

TEST(ResultsTest, PolicyNames)
{
    EXPECT_STREQ(to_string(Policy::kReservation), "reservation");
    EXPECT_STREQ(to_string(Policy::kBatch), "batch");
    EXPECT_STREQ(to_string(Policy::kNotebookOS), "notebookos");
    EXPECT_STREQ(to_string(Policy::kNotebookOSLCP), "notebookos-lcp");
}

TEST(ResultsTest, TaskOutcomeDerivedMetrics)
{
    TaskOutcome task;
    task.submit = 10 * kSecond;
    task.exec_start = 12 * kSecond;
    task.exec_end = 60 * kSecond;
    task.reply = 61 * kSecond;
    EXPECT_EQ(task.interactivity_delay(), 2 * kSecond);
    EXPECT_EQ(task.tct(), 51 * kSecond);
}

TEST(ResultsTest, SeriesFromDeltasAccumulates)
{
    auto series = series_from_deltas(
        {{10, 2.0}, {5, 1.0}, {10, 3.0}, {20, -4.0}});
    EXPECT_DOUBLE_EQ(series.value_at(5), 1.0);
    EXPECT_DOUBLE_EQ(series.value_at(10), 6.0);
    EXPECT_DOUBLE_EQ(series.value_at(25), 2.0);
}

TEST(ResultsTest, OracleSeriesTracksTaskDemand)
{
    workload::Trace trace;
    trace.makespan = kHour;
    workload::SessionSpec session;
    session.id = 1;
    session.start_time = 0;
    session.end_time = kHour;
    session.resources.gpus = 4;
    workload::CellTask task;
    task.session = 1;
    task.submit_time = 10 * kMinute;
    task.duration = 5 * kMinute;
    session.tasks.push_back(task);
    trace.sessions.push_back(session);

    const auto oracle = oracle_gpu_series(trace);
    EXPECT_DOUBLE_EQ(oracle.value_at(5 * kMinute), 0.0);
    EXPECT_DOUBLE_EQ(oracle.value_at(12 * kMinute), 4.0);
    EXPECT_DOUBLE_EQ(oracle.value_at(20 * kMinute), 0.0);
}

TEST(ResultsTest, ReservedSeriesTracksSessions)
{
    const auto trace = tiny_trace();
    const auto reserved = reserved_gpu_series(trace);
    // All sessions survive the trace: reserved GPUs only grow until the
    // trace end (where the closing deltas land).
    double total = 0.0;
    for (const auto& session : trace.sessions) {
        total += session.resources.gpus;
    }
    EXPECT_DOUBLE_EQ(reserved.value_at(trace.makespan - 1), total);
    EXPECT_DOUBLE_EQ(reserved.value_at(0), 0.0);
}

TEST(ResultsTest, ActiveSessionsSeriesCountsSessions)
{
    const auto trace = tiny_trace(5);
    const auto sessions = active_sessions_series(trace);
    EXPECT_DOUBLE_EQ(sessions.value_at(trace.makespan - 1),
                     static_cast<double>(trace.sessions.size()));
}

TEST(ResultsTest, ReexecutionSavedGrowsWithSmallerInterval)
{
    workload::WorkloadGenerator generator{sim::Rng(4)};
    workload::GeneratorOptions options;
    options.makespan = 24 * kHour;
    options.max_sessions = 30;
    options.sessions_survive_trace = true;
    const auto trace =
        generator.generate(workload::TraceProfile::adobe(), options);
    const auto saved_15 =
        reexecution_saved_series(trace, 15 * kMinute, kHour);
    const auto saved_120 =
        reexecution_saved_series(trace, 120 * kMinute, kHour);
    // Fig. 13: shorter reclamation intervals reclaim more often, so
    // NotebookOS saves more re-execution.
    EXPECT_GE(saved_15.current(), saved_120.current());
    EXPECT_GT(saved_15.current(), 0.0);
    // Cumulative series are monotone.
    double prev = 0.0;
    for (const auto& sample : saved_15.samples()) {
        EXPECT_GE(sample.value, prev);
        prev = sample.value;
    }
}

TEST(BillingTest, ReservationRevenueExceedsCost)
{
    billing::BillingConfig config;
    metrics::TimeSeries provisioned;
    provisioned.record(0, 80.0);  // 10 servers
    metrics::TimeSeries reserved;
    reserved.record(0, 80.0);  // fully reserved
    metrics::TimeSeries active;  // unused for reservation
    const auto series = billing::compute_billing(
        config, provisioned, reserved, active, false, 10 * kHour, kHour);
    // Users pay 1.15x the provider's cost for the same GPUs.
    EXPECT_NEAR(series.final_revenue(), series.final_cost() * 1.15, 1e-6);
    EXPECT_NEAR(series.final_margin_pct(), (1.0 - 1.0 / 1.15) * 100.0,
                0.01);
}

TEST(BillingTest, StandbyRateMatchesPaperExample)
{
    // §5.5.1: $10/h 8-GPU VM -> standby replica $1.44/h (10*1.15*0.125),
    // active 4-GPU replica $5.75/h (10*1.15*0.5).
    billing::BillingConfig config;
    config.server_hour_cost = 10.0;
    metrics::TimeSeries provisioned;  // zero cost for this check
    metrics::TimeSeries standby;
    standby.record(0, 1.0);  // one standby replica
    metrics::TimeSeries active;
    const auto standby_only = billing::compute_billing(
        config, provisioned, standby, active, true, kHour, kMinute);
    EXPECT_NEAR(standby_only.final_revenue(), 1.4375, 1e-6);

    metrics::TimeSeries none;
    metrics::TimeSeries active4;
    active4.record(0, 4.0);
    const auto active_only = billing::compute_billing(
        config, provisioned, none, active4, true, kHour, kMinute);
    EXPECT_NEAR(active_only.final_revenue(), 5.75, 1e-6);
}

TEST(BillingTest, EmptyInputsSafe)
{
    billing::BillingConfig config;
    metrics::TimeSeries empty;
    const auto series = billing::compute_billing(config, empty, empty,
                                                 empty, false, kHour,
                                                 kMinute);
    EXPECT_DOUBLE_EQ(series.final_cost(), 0.0);
    EXPECT_DOUBLE_EQ(series.final_revenue(), 0.0);
}

struct EngineCase
{
    Policy policy;
    bool fast = false;
};

class EngineParamTest : public ::testing::TestWithParam<EngineCase>
{
  protected:
    ExperimentResults
    run_tiny()
    {
        const auto trace = tiny_trace();
        PlatformConfig config = PlatformConfig::prototype_defaults();
        config.policy = GetParam().policy;
        config.fast_mode = GetParam().fast;
        config.seed = 5;
        return test::run_config(config, trace);
    }
};

TEST_P(EngineParamTest, AllTasksComplete)
{
    const auto results = run_tiny();
    const auto trace = tiny_trace();
    EXPECT_EQ(results.tasks.size(), trace.task_count());
    EXPECT_EQ(results.aborted_count(), 0u);
}

TEST_P(EngineParamTest, TimingsAreOrdered)
{
    const auto results = run_tiny();
    for (const TaskOutcome& task : results.tasks) {
        if (task.aborted) {
            continue;
        }
        EXPECT_LE(task.submit, task.exec_start);
        EXPECT_LE(task.exec_start, task.exec_end);
        EXPECT_LE(task.exec_end, task.reply);
        // Execution duration is at least the trace duration.
        EXPECT_GE(task.exec_end - task.exec_start, 0);
    }
}

TEST_P(EngineParamTest, CommittedNeverExceedsProvisioned)
{
    const auto results = run_tiny();
    for (const auto& sample : results.committed_gpus.samples()) {
        EXPECT_LE(sample.value,
                  results.provisioned_gpus.value_at(sample.time) + 1e-9)
            << "at " << sim::format_time(sample.time);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineParamTest,
    ::testing::Values(EngineCase{Policy::kReservation, false},
                      EngineCase{Policy::kBatch, false},
                      EngineCase{Policy::kNotebookOSLCP, false},
                      EngineCase{Policy::kNotebookOS, false},
                      EngineCase{Policy::kNotebookOS, true}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
        std::string name = to_string(info.param.policy);
        for (char& c : name) {
            if (c == '-') {
                c = '_';
            }
        }
        return name + (info.param.fast ? "_fast" : "_proto");
    });

TEST(CrossPolicyTest, ReservationProvisionsMostNotebookOsSaves)
{
    // Needs enough sessions that the 3x replication overhead is amortized
    // by oversubscription (the paper's savings regime).
    const auto trace = tiny_trace(60, 10 * kHour);
    PlatformConfig config = PlatformConfig::prototype_defaults();
    config.scheduler.initial_servers = 2;
    config.scheduler.autoscaler.buffer_servers = 1;

    const auto results = test::run_concurrent(
        trace,
        {{Policy::kReservation, 9}, {Policy::kNotebookOS, 9},
         {Policy::kBatch, 9}},
        config);
    const auto& reservation = results[0];
    const auto& nbos = results[1];
    const auto& batch = results[2];

    // Fig. 8 shape: Batch provisions least, NotebookOS sits between Batch
    // and Reservation.
    EXPECT_LT(nbos.gpu_hours_provisioned(),
              reservation.gpu_hours_provisioned());
    EXPECT_LT(batch.gpu_hours_provisioned(),
              nbos.gpu_hours_provisioned());
}

TEST(CrossPolicyTest, InteractivityOrdering)
{
    const auto trace = tiny_trace(10, 4 * kHour);
    const auto results = test::run_concurrent(
        trace, {{Policy::kReservation, 10}, {Policy::kNotebookOS, 10},
                {Policy::kBatch, 10}});
    const auto& reservation = results[0];
    const auto& nbos = results[1];
    const auto& batch = results[2];

    const double res_p50 =
        reservation.interactivity_delays_seconds().percentile(50);
    const double nbos_p50 =
        nbos.interactivity_delays_seconds().percentile(50);
    const double batch_p50 =
        batch.interactivity_delays_seconds().percentile(50);
    // Fig. 9(a) shape: Reservation and NotebookOS are sub-second;
    // Batch pays cold starts + data I/O on every submission.
    EXPECT_LT(res_p50, 1.0);
    EXPECT_LT(nbos_p50, 1.0);
    EXPECT_GT(batch_p50, 5.0);
}

TEST(PrototypeEngineTest, StatsPopulated)
{
    const auto trace = tiny_trace();
    PlatformConfig config = PlatformConfig::prototype_defaults();
    config.policy = Policy::kNotebookOS;
    const auto results = test::run_config(config, trace);
    EXPECT_EQ(results.sched_stats.kernels_created, trace.sessions.size());
    EXPECT_GT(results.sched_stats.executions_completed, 0u);
    EXPECT_GT(results.sync_ms.count(), 0u);
    EXPECT_GT(results.write_ms.count(), 0u);
    EXPECT_FALSE(results.subscription_ratio.empty());
    EXPECT_FALSE(results.events.empty());
}

TEST(PrototypeEngineTest, HighImmediateCommitFraction)
{
    // §5.3.2: NotebookOS commits GPUs immediately ~89.6% of the time and
    // reuses the executor ~89.45% of the time.
    const auto trace = tiny_trace(10, 6 * kHour);
    PlatformConfig config = PlatformConfig::prototype_defaults();
    config.policy = Policy::kNotebookOS;
    const auto results = test::run_config(config, trace);
    ASSERT_GT(results.sched_stats.gpu_executions, 0u);
    const double immediate =
        static_cast<double>(results.sched_stats.immediate_commits) /
        static_cast<double>(results.sched_stats.gpu_executions);
    EXPECT_GT(immediate, 0.7);
    const double reuse =
        static_cast<double>(results.sched_stats.executor_reuses) /
        static_cast<double>(results.sched_stats.gpu_executions);
    EXPECT_GT(reuse, 0.5);
}

TEST(FastEngineTest, MatchesPrototypeShape)
{
    const auto trace = tiny_trace(10, 4 * kHour);
    const auto results = test::run_concurrent(
        trace, {{Policy::kNotebookOS, 11, /*fast=*/false},
                {Policy::kNotebookOS, 11, /*fast=*/true}});
    const auto& proto = results[0];
    const auto& fast = results[1];
    // Same task population and comparable GPU-hour magnitudes.
    EXPECT_EQ(proto.tasks.size(), fast.tasks.size());
    EXPECT_GT(fast.gpu_hours_committed(), 0.0);
    EXPECT_NEAR(fast.gpu_hours_committed(), proto.gpu_hours_committed(),
                0.25 * proto.gpu_hours_committed() + 1.0);
    // Fast mode is also sub-second interactive.
    EXPECT_LT(fast.interactivity_delays_seconds().percentile(50), 1.0);
}

TEST(FastEngineTest, HandlesSessionsEndingMidTrace)
{
    workload::WorkloadGenerator generator{sim::Rng(31)};
    workload::GeneratorOptions options;
    options.makespan = 2 * sim::kDay;
    options.max_sessions = 25;
    options.sessions_survive_trace = false;  // sessions end and release
    const auto trace =
        generator.generate(workload::TraceProfile::adobe(), options);
    PlatformConfig config = PlatformConfig::prototype_defaults();
    config.policy = Policy::kNotebookOS;
    config.fast_mode = true;
    const auto results = test::run_config(config, trace);
    EXPECT_GT(results.tasks.size(), 0u);
    // Scale-in happens once sessions end (the auto-scaler reclaims).
    bool scale_in = false;
    for (const auto& event : results.events) {
        if (event.kind == sched::SchedulerEvent::Kind::kScaleIn) {
            scale_in = true;
        }
    }
    EXPECT_TRUE(scale_in);
}

/** A cell no shard can run — submitted after its session ended, or
 *  before it started — still has its one row on both NotebookOS engines,
 *  aborted, so they count the same cells. */
TEST(NotebookEnginesTest, RefusedCellKeepsAnAbortedRow)
{
    struct Case
    {
        const char* name;
        sim::Time start;
        sim::Time end;
        sim::Time submit;
    };
    const Case cases[] = {
        {"after end_time", 0, 30 * kMinute, 60 * kMinute},
        {"before start_time", 60 * kMinute, 3 * kHour, 30 * kMinute},
    };
    for (const Case& c : cases) {
        workload::Trace trace;
        trace.name = "refused";
        trace.makespan = 2 * kHour;
        workload::SessionSpec session;
        session.id = 7;
        session.start_time = c.start;
        session.end_time = c.end;
        session.resources = cluster::ResourceSpec{4000, 16384, 1, 16.0};
        workload::CellTask task;
        task.session = session.id;
        task.submit_time = c.submit;
        task.duration = 2 * kMinute;
        session.tasks.push_back(task);
        trace.sessions.push_back(session);
        for (const bool fast : {false, true}) {
            SCOPED_TRACE(std::string(c.name) + (fast ? " fast" : " proto"));
            const ExperimentResults results = test::run_config(
                test::platform_config(Policy::kNotebookOS, 17, fast), trace);
            ASSERT_EQ(results.tasks.size(), 1u);
            EXPECT_EQ(results.tasks[0].session, session.id);
            EXPECT_EQ(results.tasks[0].submit, c.submit);
            EXPECT_TRUE(results.tasks[0].aborted);
        }
    }
}

/** A fast-engine cell whose migration still waits for a server when its
 *  session ends ends aborted, as the prototype drops a stopped kernel's
 *  cells: it neither migrates nor runs after the session is gone. */
TEST(FastEngineTest, SessionEndingMidMigrationAbortsItsCell)
{
    // Three sessions commit all 24 GPUs of the 3-server fleet from 100 s.
    // The fourth one's cell finds no GPUs at 200 s, so it waits, retrying
    // its migration, for a server that takes at least 30 s to provision;
    // its session ends at 205 s.
    workload::Trace trace;
    trace.name = "ended-mid-migration";
    trace.makespan = 3 * kHour;
    for (workload::SessionId id = 0; id < 4; ++id) {
        const bool late = id == 3;
        workload::SessionSpec session;
        session.id = id;
        session.end_time = late ? 205 * kSecond : 3 * kHour;
        session.resources = cluster::ResourceSpec{4000, 16384, 8, 16.0};
        workload::CellTask task;
        task.session = id;
        task.submit_time = late ? 200 * kSecond : 100 * kSecond;
        task.duration = late ? kMinute : 2 * kHour;
        session.tasks.push_back(task);
        trace.sessions.push_back(session);
    }
    PlatformConfig config =
        test::platform_config(Policy::kNotebookOS, 17, /*fast=*/true);
    config.scheduler.initial_servers = 3;
    config.scheduler.enable_autoscaler = false;
    const ExperimentResults results = test::run_config(config, trace);
    ASSERT_EQ(results.tasks.size(), 4u);
    for (const TaskOutcome& task : results.tasks) {
        SCOPED_TRACE("session " + std::to_string(task.session));
        EXPECT_EQ(task.aborted, task.session == 3);
        EXPECT_FALSE(task.migrated);
    }
}

/** A fast-engine cell whose session ends after its migration found a
 *  target, while the checkpoint, container and reconfiguration delays
 *  still run, ends aborted too: it must not commit GPUs on the target or
 *  complete after the session is gone. */
TEST(FastEngineTest, SessionEndingDuringMigrationAbortsItsCell)
{
    // One replica per kernel on a 2-server fleet: sessions 0 and 2 share
    // server 0, session 1 (no cells) has server 1. Session 0 commits all
    // of server 0 from 100 s, so session 2's cell at 200 s migrates to
    // server 1; its session ends 100 ms later.
    workload::Trace trace;
    trace.name = "ended-during-migration";
    trace.makespan = 3 * kHour;
    for (workload::SessionId id = 0; id < 3; ++id) {
        const bool late = id == 2;
        workload::SessionSpec session;
        session.id = id;
        session.end_time =
            late ? 200 * kSecond + 100 * sim::kMillisecond : 3 * kHour;
        session.resources = cluster::ResourceSpec{4000, 16384, 8, 16.0};
        workload::CellTask task;
        task.session = id;
        task.submit_time = late ? 200 * kSecond : 100 * kSecond;
        task.duration = late ? kMinute : 2 * kHour;
        if (id != 1) {
            session.tasks.push_back(task);
        }
        trace.sessions.push_back(session);
    }
    PlatformConfig config =
        test::platform_config(Policy::kNotebookOS, 17, /*fast=*/true);
    config.scheduler.initial_servers = 2;
    config.scheduler.kernel.replica_count = 1;
    config.scheduler.enable_autoscaler = false;
    const ExperimentResults results = test::run_config(config, trace);
    ASSERT_EQ(results.sched_stats.migrations, 1u);
    ASSERT_EQ(results.tasks.size(), 2u);
    for (const TaskOutcome& task : results.tasks) {
        SCOPED_TRACE("session " + std::to_string(task.session));
        EXPECT_EQ(task.aborted, task.session == 2);
    }
    EXPECT_EQ(results.sched_stats.executions_completed, 1u);
}

/** Run @p trace on the fast engine at 2 shards of three servers each
 *  under `rebalance`, serial and parallel, which must agree exactly;
 *  returns the serial run. */
ExperimentResults
run_rebalanced_fast(const workload::Trace& trace)
{
    PlatformConfig config =
        test::platform_config(Policy::kNotebookOS, 17, /*fast=*/true);
    config.scheduler.shards = 2;
    config.scheduler.routing = sched::RoutingPolicyKind::kRebalance;
    config.scheduler.initial_servers = 6;
    config.scheduler.shard_parallel = false;
    const ExperimentResults serial = test::run_config(config, trace);
    config.scheduler.shard_parallel = true;
    test::expect_results_identical(serial, test::run_config(config, trace));
    return serial;
}

/** A fast-engine session that ends while its GPU cell executes does not
 *  take the cell with it: the cell completes after the session is gone,
 *  its GPU-hours count, and the GPUs it committed are released. */
TEST(FastEngineTest, SessionEndingWhileItsCellExecutesCompletesTheCell)
{
    // Six 2-GPU sessions, each kernel placed at once on its shard's three
    // servers; each one's cell runs from 100 s for an hour and its
    // session ends at 10 min.
    workload::Trace trace;
    trace.name = "ended-mid-execution";
    trace.makespan = 3 * kHour;
    for (workload::SessionId id = 0; id < 6; ++id) {
        workload::SessionSpec session;
        session.id = id;
        session.end_time = 10 * kMinute;
        session.resources = cluster::ResourceSpec{4000, 16384, 2, 16.0};
        workload::CellTask task;
        task.session = id;
        task.submit_time = 100 * kSecond;
        task.duration = kHour;
        session.tasks.push_back(task);
        trace.sessions.push_back(session);
    }
    const ExperimentResults results = run_rebalanced_fast(trace);
    ASSERT_EQ(results.tasks.size(), 6u);
    for (const TaskOutcome& task : results.tasks) {
        SCOPED_TRACE("session " + std::to_string(task.session));
        EXPECT_FALSE(task.aborted);
        EXPECT_EQ(task.exec_end - task.exec_start, kHour);
        EXPECT_GT(task.reply, 10 * kMinute);
    }
    EXPECT_EQ(results.sched_stats.executions_completed, 6u);
    EXPECT_NEAR(results.gpu_hours_committed(), 6 * 2.0, 1e-9);
    // With every GPU released, each shard's autoscaler shrinks its idle
    // fleet to the 2-server buffer (AutoScalerConfig::buffer_servers).
    EXPECT_DOUBLE_EQ(results.provisioned_gpus.current(), 2 * 2 * 8.0);
}

/** A fast-engine cell submitted exactly at its session's end runs after
 *  the end and ends aborted; the session's earlier cell still completes. */
TEST(FastEngineTest, CellSubmittedAtSessionEndingIsAborted)
{
    workload::Trace trace;
    trace.name = "cell-at-end";
    trace.makespan = 2 * kHour;
    for (workload::SessionId id = 0; id < 4; ++id) {
        workload::SessionSpec session;
        session.id = id;
        session.end_time = 30 * kMinute;
        session.resources = cluster::ResourceSpec{4000, 16384, 1, 16.0};
        for (const sim::Time submit : {5 * kMinute, 30 * kMinute}) {
            workload::CellTask task;
            task.session = id;
            task.seq = static_cast<std::int32_t>(session.tasks.size());
            task.submit_time = submit;
            task.duration = 2 * kMinute;
            task.is_gpu = id % 2 == 0;
            session.tasks.push_back(task);
        }
        trace.sessions.push_back(session);
    }
    const ExperimentResults results = run_rebalanced_fast(trace);
    ASSERT_EQ(results.tasks.size(), 8u);
    for (const TaskOutcome& task : results.tasks) {
        SCOPED_TRACE("session " + std::to_string(task.session) + " cell " +
                     std::to_string(task.seq));
        EXPECT_EQ(task.aborted, task.submit == 30 * kMinute);
    }
    EXPECT_EQ(results.sched_stats.executions_completed, 4u);
}

TEST(BatchEngineTest, ColdStartDominatesDelay)
{
    const auto trace = tiny_trace(6, 3 * kHour);
    PlatformConfig config;
    config.policy = Policy::kBatch;
    const auto results = test::run_config(config, trace);
    const auto delays = results.interactivity_delays_seconds();
    // Every task pays at least the minimum container cold start (8 s).
    EXPECT_GE(delays.min(), 8.0);
}

TEST(LcpEngineTest, WarmPoolBeatsBatchDelay)
{
    const auto trace = tiny_trace(6, 3 * kHour);
    PlatformConfig config;
    config.policy = Policy::kBatch;
    const auto batch = test::run_config(config, trace);
    config.policy = Policy::kNotebookOSLCP;
    const auto lcp = test::run_config(config, trace);
    EXPECT_LT(lcp.interactivity_delays_seconds().percentile(50),
              batch.interactivity_delays_seconds().percentile(50));
}

TEST(ReservationEngineTest, CommittedEqualsReservedShape)
{
    const auto trace = tiny_trace(6, 3 * kHour);
    PlatformConfig config;
    config.policy = Policy::kReservation;
    const auto results = test::run_config(config, trace);
    // Reservation holds GPUs for whole sessions: committed GPU-hours
    // substantially exceed the oracle's task demand.
    const auto oracle = oracle_gpu_series(trace);
    EXPECT_GT(results.gpu_hours_committed(),
              1.5 * oracle.integrate_hours(0, trace.makespan));
}

/** A fake engine for drive_windows: it checks what the loop hands it —
 *  each cell with the next row of @p tasks, already filled from the cell —
 *  and routes sessions through a least_loaded SessionRouter the way both
 *  NotebookOS engines do. */
class RecordingEngine
{
  public:
    RecordingEngine(const workload::Trace& trace,
                    const std::vector<TaskOutcome>& tasks)
        : tasks_(tasks)
    {
        for (const workload::SessionSpec& session : trace.sessions) {
            Session& s = sessions_[session.id];
            s.events = 1;
            s.last = session.start_time;
            if (session.end_time < trace.makespan) {
                ++s.events;
                s.last = std::max(s.last, session.end_time);
            }
            for (const workload::CellTask& task : session.tasks) {
                ++s.events;
                s.last = std::max(s.last, task.submit_time);
            }
        }
    }

    void admit(const workload::SessionSpec& session)
    {
        EXPECT_EQ(sessions_.at(session.id).admitted++, 0)
            << "session " << session.id;
        router_.admit(session.id, session.tasks.size());
    }

    void inject(const Injection& event)
    {
        Session& s = sessions_.at(event.session->id);
        EXPECT_EQ(s.retired, 0) << "event after retire";
        ++s.injected;
        EXPECT_LT(router_.shard_of(event.session->id), 3u);
        if (event.kind != Injection::kTask) {
            return;
        }
        EXPECT_EQ(event.row, next_row_++);
        ASSERT_EQ(tasks_.size(), next_row_);
        const TaskOutcome& row = tasks_.back();
        EXPECT_EQ(row.session, event.session->id);
        EXPECT_EQ(row.seq, event.task->seq);
        EXPECT_EQ(row.submit, event.time);
        EXPECT_EQ(row.submit, event.task->submit_time);
        EXPECT_EQ(row.gpus, event.session->resources.gpus);
        EXPECT_EQ(row.is_gpu, event.task->is_gpu);
    }

    void advance(sim::Time stop) { now_ = stop; }
    void close_window(sim::Time, bool) {}

    void retire(workload::SessionId id)
    {
        Session& s = sessions_.at(id);
        ++s.retired;
        // Every event was handed over and the shards ran past the last.
        EXPECT_EQ(s.injected, s.events) << "session " << id;
        EXPECT_LE(s.last, now_) << "session " << id;
        peak_overrides_ =
            std::max(peak_overrides_, router_.table().overrides());
        router_.forget(id);
    }

    void drain(sim::Time) {}

    void expect_each_retired_once() const
    {
        for (const auto& [id, s] : sessions_) {
            EXPECT_EQ(s.admitted, 1) << "session " << id;
            EXPECT_EQ(s.retired, 1) << "session " << id;
        }
    }

    const sched::SessionRouter& router() const { return router_; }
    std::size_t peak_overrides() const { return peak_overrides_; }

  private:
    struct Session
    {
        int events = 0;
        sim::Time last = 0;
        int admitted = 0;
        int injected = 0;
        int retired = 0;
    };

    std::map<workload::SessionId, Session> sessions_;
    const std::vector<TaskOutcome>& tasks_;
    std::size_t next_row_ = 0;
    sched::SessionRouter router_{sched::RoutingPolicyKind::kLeastLoaded, 3};
    sim::Time now_ = 0;
    std::size_t peak_overrides_ = 0;
};

/** The windowed driver retires every admitted session exactly once, after
 *  its last event has run — at every window and on a pinned stride that
 *  admits ahead — so a router fed through admit/retire ends the run
 *  holding no overrides. It also creates the run's one outcome table: a
 *  row per cell, handed out with its cell, in (submit, session, seq)
 *  order. */
TEST(WindowDriverTest, RetiresEverySessionOnceAfterItsLastEvent)
{
    workload::Trace trace;
    trace.name = "retire";
    trace.makespan = 6 * kHour;
    sim::Rng rng = test::seeded_rng(9);
    for (workload::SessionId id = 0; id < 300; ++id) {
        workload::SessionSpec session;
        session.id = id;
        session.start_time = rng.uniform_int(0, 5 * kHour);
        // Some sessions end mid-trace; the rest outlive it.
        session.end_time =
            session.start_time + rng.uniform_int(10 * kMinute, 4 * kHour);
        const sim::Time busy_until =
            std::min(session.end_time, trace.makespan);
        const std::int64_t cells = rng.uniform_int(0, 3);
        for (std::int32_t seq = 0; seq < cells; ++seq) {
            workload::CellTask task;
            task.session = id;
            task.seq = seq;
            task.submit_time =
                rng.uniform_int(session.start_time, busy_until);
            session.tasks.push_back(task);
        }
        trace.sessions.push_back(std::move(session));
    }

    const sim::Time window = 15 * kMinute;
    for (const sim::Time stride : {window, 4 * window}) {
        SCOPED_TRACE("stride " + std::to_string(stride / kMinute) + " min");
        workload::TraceSessionSource source(trace);
        SessionFeed feed(source, window);
        std::vector<TaskOutcome> tasks;
        RecordingEngine engine(trace, tasks);
        drive_windows(feed, stride, engine, tasks);
        engine.expect_each_retired_once();
        EXPECT_GT(engine.peak_overrides(), 0u);
        EXPECT_EQ(engine.router().table().overrides(), 0u);
        EXPECT_EQ(tasks.size(), trace.task_count());
        EXPECT_TRUE(test::in_submit_order(tasks));
    }
}

/** One shard's part for the merge tests: two events (the second, of
 *  @p kind, at 20 s), samples in every distribution and a count in every
 *  counter, all scaled by @p k so the parts are told apart. */
ExperimentResults
merge_part(std::int64_t k, sched::SchedulerEvent::Kind kind)
{
    ExperimentResults part;
    part.sched_stats.kernels_created = static_cast<std::uint64_t>(k);
    part.sched_stats.executions_completed = 2 * static_cast<std::uint64_t>(k);
    part.events.push_back(
        sched::SchedulerEvent{sched::SchedulerEvent::Kind::kKernelCreated,
                              k * kSecond});
    part.events.push_back(sched::SchedulerEvent{kind, 20 * kSecond});
    part.sync_ms.add(3.0 * static_cast<double>(k));
    part.sync_ms.add(1.0 * static_cast<double>(k));
    part.read_ms.add(2.0 * static_cast<double>(k));
    part.write_ms.add(4.0 * static_cast<double>(k));
    part.store_bytes_written = 100 * static_cast<std::uint64_t>(k);
    part.net_stats.sent = 7 * static_cast<std::uint64_t>(k);
    part.net_stats.delivered = 6 * static_cast<std::uint64_t>(k);
    return part;
}

/** merge_shards is the one cross-shard fold of both engines. One part
 *  comes back as it went in with no shard view (shards=1 is the
 *  monolithic scheduler); several are summed in shard order, with events
 *  put in order and the imbalance computed from the per-shard event
 *  counts. */
TEST(WindowDriverTest, MergeShardsFoldsInShardOrder)
{
    using Kind = sched::SchedulerEvent::Kind;
    const ExperimentResults a = merge_part(1, Kind::kMigration);
    const ExperimentResults b = merge_part(2, Kind::kScaleOut);
    const auto event_keys = [](const ExperimentResults& results) {
        std::vector<std::pair<sim::Time, sched::SchedulerEvent::Kind>> keys;
        for (const sched::SchedulerEvent& event : results.events) {
            keys.emplace_back(event.time, event.kind);
        }
        return keys;
    };

    {
        SCOPED_TRACE("one part");
        const RunResponse one = merge_shards({a}, {{42, 7}});
        const ExperimentResults& merged = one.results;
        EXPECT_TRUE(merged.sched_stats == a.sched_stats);
        EXPECT_TRUE(merged.sched_stats.shard_loads.empty());
        EXPECT_EQ(merged.sched_stats.shard_imbalance(), 0.0);
        EXPECT_EQ(event_keys(merged), event_keys(a));
        EXPECT_EQ(merged.sync_ms.sorted(), a.sync_ms.sorted());
        EXPECT_EQ(merged.read_ms.sorted(), a.read_ms.sorted());
        EXPECT_EQ(merged.write_ms.sorted(), a.write_ms.sorted());
        EXPECT_EQ(merged.store_bytes_written, a.store_bytes_written);
        EXPECT_TRUE(merged.net_stats == a.net_stats);
        EXPECT_EQ(one.shard_events, (std::vector<std::uint64_t>{42}));
        EXPECT_EQ(one.events_executed, 42u);
        EXPECT_EQ(one.placement_servers_examined, 7u);
    }

    SCOPED_TRACE("two parts");
    const RunResponse two = merge_shards({a, b}, {{30, 6}, {10, 9}});
    const ExperimentResults& merged = two.results;
    EXPECT_EQ(merged.sched_stats.kernels_created, 3u);
    EXPECT_EQ(merged.sched_stats.executions_completed, 6u);
    EXPECT_EQ(merged.store_bytes_written, 300u);
    EXPECT_EQ(merged.net_stats.sent, 21u);
    EXPECT_EQ(merged.net_stats.delivered, 18u);
    // Time order; the tie at 20 s keeps shard order.
    EXPECT_EQ(event_keys(merged),
              (std::vector<std::pair<sim::Time, Kind>>{
                  {1 * kSecond, Kind::kKernelCreated},
                  {2 * kSecond, Kind::kKernelCreated},
                  {20 * kSecond, Kind::kMigration},
                  {20 * kSecond, Kind::kScaleOut}}));
    // Samples are concatenated in shard order, each part's sorted.
    EXPECT_EQ(merged.sync_ms.count(), 4u);
    EXPECT_EQ(merged.sync_ms.sum(), 1.0 + 3.0 + 2.0 + 6.0);
    EXPECT_EQ(merged.read_ms.sorted(), (std::vector<double>{2.0, 4.0}));
    EXPECT_EQ(merged.write_ms.sorted(), (std::vector<double>{4.0, 8.0}));
    EXPECT_EQ(two.shard_events, (std::vector<std::uint64_t>{30, 10}));
    EXPECT_EQ(two.events_executed, 40u);
    EXPECT_EQ(two.placement_servers_examined, 15u);
    ASSERT_EQ(merged.sched_stats.shard_loads.size(), 2u);
    EXPECT_EQ(merged.sched_stats.shard_loads[0].events, 30u);
    EXPECT_EQ(merged.sched_stats.shard_loads[1].events, 10u);
    // max / mean = 30 / 20.
    EXPECT_DOUBLE_EQ(merged.sched_stats.shard_imbalance(), 1.5);
}

}  // namespace
}  // namespace nbos::core
