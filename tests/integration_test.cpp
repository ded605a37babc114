/**
 * @file
 * Cross-module integration tests: end-to-end determinism, trace-file
 * replay equivalence, oracle bounds, and billing consistency across the
 * whole platform stack.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>

#include "billing/billing.hpp"
#include "core/platform.hpp"
#include "harness.hpp"
#include "sched/shard.hpp"
#include "workload/generator.hpp"
#include "workload/trace_io.hpp"

namespace nbos {
namespace {

workload::Trace
make_trace(std::uint64_t seed, int sessions = 12,
           sim::Time makespan = 4 * sim::kHour)
{
    return test::tiny_trace(sessions, makespan, seed);
}

core::ExperimentResults
run(const workload::Trace& trace, core::Policy policy,
    std::uint64_t seed = 17, bool fast = false)
{
    return test::run_policy(trace, policy, seed, fast);
}

TEST(IntegrationTest, WholePlatformRunIsDeterministic)
{
    // The two same-seed runs execute concurrently on the
    // ExperimentRunner — determinism must hold there too.
    const auto trace = make_trace(5);
    const auto results = test::run_concurrent(
        trace, {{core::Policy::kNotebookOS}, {core::Policy::kNotebookOS}});
    const auto& a = results[0];
    const auto& b = results[1];
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (std::size_t i = 0; i < a.tasks.size(); ++i) {
        EXPECT_EQ(a.tasks[i].exec_start, b.tasks[i].exec_start) << i;
        EXPECT_EQ(a.tasks[i].reply, b.tasks[i].reply) << i;
        EXPECT_EQ(a.tasks[i].migrated, b.tasks[i].migrated) << i;
    }
    EXPECT_EQ(a.sched_stats.migrations, b.sched_stats.migrations);
    EXPECT_DOUBLE_EQ(a.gpu_hours_provisioned(), b.gpu_hours_provisioned());
}

TEST(IntegrationTest, DifferentSeedsChangeSchedulingNotOutcomes)
{
    const auto trace = make_trace(6);
    const auto results = test::run_concurrent(
        trace,
        {{core::Policy::kNotebookOS, 1}, {core::Policy::kNotebookOS, 2}});
    const auto& a = results[0];
    const auto& b = results[1];
    // All tasks complete under both seeds; only timing details differ.
    EXPECT_EQ(a.aborted_count(), 0u);
    EXPECT_EQ(b.aborted_count(), 0u);
    EXPECT_EQ(a.tasks.size(), b.tasks.size());
}

TEST(IntegrationTest, TraceFileReplayProducesIdenticalResults)
{
    const auto original = make_trace(7);
    std::stringstream buffer;
    workload::save_trace(original, buffer);
    const auto replayed = workload::load_trace(buffer);

    const auto a = run(original, core::Policy::kNotebookOS);
    const auto b = run(replayed, core::Policy::kNotebookOS);
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (std::size_t i = 0; i < a.tasks.size(); ++i) {
        EXPECT_EQ(a.tasks[i].exec_start, b.tasks[i].exec_start) << i;
        EXPECT_EQ(a.tasks[i].exec_end, b.tasks[i].exec_end) << i;
    }
}

TEST(IntegrationTest, NoPolicyBeatsTheOracle)
{
    const auto trace = make_trace(8);
    const double oracle_hours =
        core::oracle_gpu_series(trace).integrate_hours(0, trace.makespan);
    // All four policies run concurrently on the ExperimentRunner.
    const auto results = test::run_concurrent(
        trace, {{core::Policy::kReservation},
                {core::Policy::kBatch},
                {core::Policy::kNotebookOS},
                {core::Policy::kNotebookOSLCP}});
    for (const auto& result : results) {
        EXPECT_GE(result.gpu_hours_provisioned(), 0.9 * oracle_hours)
            << core::to_string(result.policy);
    }
}

TEST(IntegrationTest, ExecutionNeverOverlapsWithinSession)
{
    // Notebook semantics: a kernel executes at most one cell at a time.
    const auto trace = make_trace(9);
    const auto results = run(trace, core::Policy::kNotebookOS);
    std::map<workload::SessionId, sim::Time> last_end;
    for (const auto& task : results.tasks) {
        if (task.aborted) {
            continue;
        }
        EXPECT_GE(task.exec_start, last_end[task.session])
            << "session " << task.session << " seq " << task.seq;
        last_end[task.session] =
            std::max(last_end[task.session], task.exec_end);
    }
}

TEST(IntegrationTest, BillingConsistentAcrossPolicies)
{
    const auto trace = make_trace(10);
    billing::BillingConfig config;
    const auto reservation = run(trace, core::Policy::kReservation);
    const auto nbos = run(trace, core::Policy::kNotebookOS);

    const auto reserved = core::reserved_gpu_series(trace);
    metrics::TimeSeries none;
    const auto res_billing = billing::compute_billing(
        config, reservation.provisioned_gpus, reserved, none, false,
        trace.makespan, 10 * sim::kMinute);
    metrics::TimeSeries standby;
    const auto sessions = core::active_sessions_series(trace);
    for (sim::Time t = 0; t <= trace.makespan; t += 10 * sim::kMinute) {
        standby.record(t, 3.0 * sessions.value_at(t));
    }
    const auto nbos_billing = billing::compute_billing(
        config, nbos.provisioned_gpus, standby, nbos.committed_gpus, true,
        trace.makespan, 10 * sim::kMinute);

    // Costs are positive and cumulative series are monotone.
    EXPECT_GT(res_billing.final_cost(), 0.0);
    EXPECT_GT(nbos_billing.final_cost(), 0.0);
    double prev = 0.0;
    for (const auto& sample : nbos_billing.provider_cost.samples()) {
        EXPECT_GE(sample.value, prev);
        prev = sample.value;
    }
}

TEST(IntegrationTest, FastAndPrototypeAgreeOnCompletion)
{
    const auto trace = make_trace(11);
    const auto results = test::run_concurrent(
        trace, {{core::Policy::kNotebookOS, 17, /*fast=*/false},
                {core::Policy::kNotebookOS, 17, /*fast=*/true}});
    const auto& proto = results[0];
    const auto& fast = results[1];
    EXPECT_EQ(proto.aborted_count(), 0u);
    EXPECT_EQ(fast.aborted_count(), 0u);
    EXPECT_EQ(proto.tasks.size(), fast.tasks.size());
    // Same kernels created; executions equal the GPU task population.
    EXPECT_EQ(proto.sched_stats.kernels_created,
              fast.sched_stats.kernels_created);
}

TEST(IntegrationTest, SubscriptionAccountingBalancesAtEnd)
{
    // After every session ends, subscriptions return to zero.
    workload::WorkloadGenerator generator{sim::Rng(12)};
    workload::GeneratorOptions options;
    options.makespan = sim::kDay;
    options.max_sessions = 10;
    options.sessions_survive_trace = false;
    workload::TraceProfile profile = workload::TraceProfile::adobe();
    profile.session_lifetime_mu = std::log(3.0 * 3600.0);
    profile.session_lifetime_sigma = 0.5;
    const auto trace = generator.generate(profile, options);
    ASSERT_FALSE(trace.sessions.empty());

    sim::Simulation simulation;
    sched::SchedulerConfig config =
        core::PlatformConfig::prototype_defaults().scheduler;
    sched::SchedulerShard scheduler(simulation, config, 12);
    scheduler.start();
    for (const auto& session : trace.sessions) {
        const auto* sp = &session;
        simulation.schedule_at(session.start_time, [&, sp] {
            scheduler.begin_session(sp->id, sp->resources);
        });
    }
    simulation.run_until(12 * sim::kHour);
    ASSERT_GT(scheduler.session_count(), 0u);
    for (const auto& session : trace.sessions) {
        scheduler.end_session(session.id);
    }
    EXPECT_EQ(scheduler.session_count(), 0u);
    EXPECT_EQ(scheduler.cluster().total_subscribed_gpus(), 0);
    EXPECT_EQ(scheduler.cluster().total_committed_gpus(), 0);
}

}  // namespace
}  // namespace nbos
