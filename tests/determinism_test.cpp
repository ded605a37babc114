/**
 * @file
 * Cross-engine reproducibility suite: same-seed runs of the fast analytic
 * engine and the discrete-event prototype engine must be bit-identical,
 * and the two engines must agree on workload-level aggregates. Every later
 * optimization PR must keep this suite green.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sstream>

#include "chaos/config.hpp"
#include "chaos/fault_plan.hpp"
#include "core/engine_api.hpp"
#include "core/seed_sweep.hpp"
#include "harness.hpp"
#include "net/network.hpp"
#include "raft/raft.hpp"
#include "sched/routing.hpp"
#include "sim/simulation.hpp"
#include "workload/profiles.hpp"
#include "workload/session_source.hpp"
#include "workload/trace_io.hpp"

namespace nbos {
namespace {

/** Message-level fingerprint of one Raft scenario run. */
struct RaftMessageStats
{
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t blocked_partition = 0;
    std::uint64_t applied = 0;
    std::uint64_t events = 0;
};

/**
 * A fixed consensus scenario: a 3-node group with 5% message drops, 20
 * proposals, and a one-second partition spell. Every message the protocol
 * exchanges lands in these counters, so they fingerprint the full
 * send/drop/deliver flow for a seed.
 */
RaftMessageStats
run_raft_scenario(std::uint64_t seed)
{
    sim::Simulation simulation;
    net::Network network(simulation, sim::Rng(seed));
    const std::vector<net::NodeId> members{1, 2, 3};
    std::map<net::NodeId, std::unique_ptr<raft::RaftNode>> nodes;
    RaftMessageStats stats;
    sim::Rng seeder(seed);
    for (const net::NodeId id : members) {
        auto node = std::make_unique<raft::RaftNode>(
            simulation, network, id, members, raft::RaftConfig{},
            sim::Rng(seeder.next_u64()));
        node->set_apply(
            [&stats](const raft::LogEntry&) { ++stats.applied; });
        nodes.emplace(id, std::move(node));
    }
    for (auto& [id, node] : nodes) {
        node->start();
    }
    network.set_drop_probability(0.05);
    for (int i = 0; i < 20; ++i) {
        simulation.schedule_at(
            sim::kSecond + i * 100 * sim::kMillisecond, [&nodes, i] {
                for (auto& [id, node] : nodes) {
                    if (node->role() == raft::Role::kLeader) {
                        node->propose("e" + std::to_string(i));
                        return;
                    }
                }
            });
    }
    simulation.schedule_at(2 * sim::kSecond, [&network] {
        network.set_partitioned(2, 3, true);
    });
    simulation.schedule_at(3 * sim::kSecond, [&network] {
        network.set_partitioned(2, 3, false);
    });
    simulation.run_until(5 * sim::kSecond);
    stats.sent = network.stats().sent;
    stats.delivered = network.stats().delivered;
    stats.dropped = network.stats().dropped;
    stats.blocked_partition = network.stats().blocked_partition;
    stats.events = simulation.events_executed();
    return stats;
}

TEST(DeterminismTest, FastEngineSameSeedBitIdentical)
{
    const auto trace = test::tiny_trace(10, 4 * sim::kHour);
    const auto a = test::run_policy(trace, core::Policy::kNotebookOS,
                                    /*seed=*/33, /*fast=*/true);
    const auto b = test::run_policy(trace, core::Policy::kNotebookOS,
                                    /*seed=*/33, /*fast=*/true);
    test::expect_results_identical(a, b);
}

TEST(DeterminismTest, PrototypeEngineSameSeedBitIdentical)
{
    const auto trace = test::tiny_trace(8, 3 * sim::kHour);
    const auto a = test::run_policy(trace, core::Policy::kNotebookOS,
                                    /*seed=*/33, /*fast=*/false);
    const auto b = test::run_policy(trace, core::Policy::kNotebookOS,
                                    /*seed=*/33, /*fast=*/false);
    test::expect_results_identical(a, b);
}

TEST(DeterminismTest, BaselineEnginesSameSeedBitIdentical)
{
    const auto trace = test::tiny_trace(8, 3 * sim::kHour);
    for (const core::Policy policy :
         {core::Policy::kReservation, core::Policy::kBatch}) {
        SCOPED_TRACE(core::to_string(policy));
        const auto a = test::run_policy(trace, policy, /*seed=*/7);
        const auto b = test::run_policy(trace, policy, /*seed=*/7);
        test::expect_results_identical(a, b);
    }
}

TEST(DeterminismTest, TraceGenerationSameSeedBitIdentical)
{
    const auto a = test::tiny_trace(12, 6 * sim::kHour, /*seed=*/91);
    const auto b = test::tiny_trace(12, 6 * sim::kHour, /*seed=*/91);
    ASSERT_EQ(a.sessions.size(), b.sessions.size());
    for (std::size_t i = 0; i < a.sessions.size(); ++i) {
        ASSERT_EQ(a.sessions[i].start_time, b.sessions[i].start_time) << i;
        ASSERT_EQ(a.sessions[i].end_time, b.sessions[i].end_time) << i;
        ASSERT_EQ(a.sessions[i].tasks.size(), b.sessions[i].tasks.size())
            << i;
        for (std::size_t j = 0; j < a.sessions[i].tasks.size(); ++j) {
            ASSERT_EQ(a.sessions[i].tasks[j].submit_time,
                      b.sessions[i].tasks[j].submit_time)
                << i << "/" << j;
            ASSERT_EQ(a.sessions[i].tasks[j].duration,
                      b.sessions[i].tasks[j].duration)
                << i << "/" << j;
        }
    }
}

/** The fast engine models the same scheduling decisions as the prototype,
 *  so workload-level aggregates must agree: identical task counts, and
 *  completed-session/-execution counts within a small tolerance (the fast
 *  engine samples consensus latency instead of replaying messages). */
TEST(DeterminismTest, EnginesAgreeOnWorkloadAggregates)
{
    const auto trace = test::tiny_trace(10, 4 * sim::kHour);
    const auto fast = test::run_policy(trace, core::Policy::kNotebookOS,
                                       /*seed=*/33, /*fast=*/true);
    const auto proto = test::run_policy(trace, core::Policy::kNotebookOS,
                                        /*seed=*/33, /*fast=*/false);

    // Both engines see every submitted cell task.
    EXPECT_EQ(fast.tasks.size(), proto.tasks.size());

    // Both create one replicated kernel per session that ever starts.
    const auto sessions = trace.sessions.size();
    EXPECT_LE(fast.sched_stats.kernels_created, sessions);
    EXPECT_LE(proto.sched_stats.kernels_created, sessions);
    EXPECT_EQ(fast.sched_stats.kernels_created,
              proto.sched_stats.kernels_created);

    // Completed executions agree within 10% (sampled consensus latency can
    // push a borderline task past the horizon in one engine only).
    const auto fast_done =
        static_cast<double>(fast.sched_stats.executions_completed);
    const auto proto_done =
        static_cast<double>(proto.sched_stats.executions_completed);
    ASSERT_GT(proto_done, 0.0);
    EXPECT_LE(std::abs(fast_done - proto_done),
              0.10 * proto_done + 1.0);

    // Aborted work stays negligible on both engines for a tiny trace.
    EXPECT_LE(fast.aborted_count(), fast.tasks.size() / 10);
    EXPECT_LE(proto.aborted_count(), proto.tasks.size() / 10);
}

/**
 * Message-stats invariant: per-seed sent/delivered/dropped counts of the
 * fixed Raft scenario are pinned to golden values captured from the
 * pre-envelope implementation (PR 2, std::any payloads + deep-copied log
 * entries). The typed-envelope/shared-entry/slab-scheduler rewrite — and any
 * future transport optimization — must reproduce the message flow exactly,
 * not merely be self-consistent.
 */
TEST(DeterminismTest, RaftMessageStatsMatchPreRewriteGolden)
{
    const struct
    {
        std::uint64_t seed;
        RaftMessageStats want;
    } kGolden[] = {
        {7, {524, 456, 25, 43, 60, 577}},
        {21, {541, 514, 27, 0, 60, 633}},
        {42, {549, 526, 23, 0, 60, 645}},
    };
    for (const auto& golden : kGolden) {
        SCOPED_TRACE("seed=" + std::to_string(golden.seed));
        const RaftMessageStats got = run_raft_scenario(golden.seed);
        EXPECT_EQ(got.sent, golden.want.sent);
        EXPECT_EQ(got.delivered, golden.want.delivered);
        EXPECT_EQ(got.dropped, golden.want.dropped);
        EXPECT_EQ(got.blocked_partition, golden.want.blocked_partition);
        EXPECT_EQ(got.applied, golden.want.applied);
        EXPECT_EQ(got.events, golden.want.events);

        // And the scenario itself is reproducible run-to-run.
        const RaftMessageStats again = run_raft_scenario(golden.seed);
        EXPECT_EQ(again.sent, got.sent);
        EXPECT_EQ(again.delivered, got.delivered);
        EXPECT_EQ(again.events, got.events);
    }
}

/** Extension of the contract for the concurrent ExperimentRunner: a
 *  same-seed spec must produce bit-identical results whether it runs
 *  serially or on a thread pool next to other engines. */
TEST(DeterminismTest, RunnerParallelExecutionBitIdenticalToSerial)
{
    const auto trace = test::tiny_trace(8, 3 * sim::kHour);
    std::vector<core::ExperimentSpec> specs;
    for (const char* engine :
         {core::kEngineFast, core::kEnginePrototype,
          core::kEngineReservation, core::kEngineBatch,
          core::kEngineLcp}) {
        core::ExperimentSpec spec;
        spec.engine = engine;
        spec.trace = &trace;
        spec.config = core::PlatformConfig::prototype_defaults();
        spec.seed = 33;
        specs.push_back(std::move(spec));
    }
    const auto serial = core::ExperimentRunner(1).run(specs);
    const auto parallel = core::ExperimentRunner(specs.size()).run(specs);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(specs[i].engine);
        ASSERT_TRUE(serial[i].ok) << serial[i].error;
        ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
        test::expect_results_identical(serial[i].results,
                                       parallel[i].results);
    }
}

/** The contract extended to seed sweeps: because the fold walks per-seed
 *  results in seed order (never completion order), an N-seed aggregate is
 *  bit-identical whether the runs executed serially or on a full thread
 *  pool. Every Summary field must match to the last bit — no tolerance. */
TEST(DeterminismTest, SeedSweepParallelBitIdenticalToSerial)
{
    const auto trace = test::tiny_trace();
    core::SweepSpec sweep;
    sweep.base.engine = core::kEngineFast;
    sweep.base.trace = &trace;
    sweep.base.config = core::PlatformConfig::prototype_defaults();
    sweep.seeds = core::seed_range(1, 8);

    const auto serial = core::SeedSweep(1).run({sweep});
    const auto parallel = core::SeedSweep(8).run({sweep});
    ASSERT_EQ(serial.size(), 1u);
    ASSERT_EQ(parallel.size(), 1u);
    ASSERT_TRUE(serial[0].ok) << serial[0].error;
    ASSERT_TRUE(parallel[0].ok) << parallel[0].error;

    ASSERT_EQ(serial[0].per_seed.size(), parallel[0].per_seed.size());
    for (std::size_t i = 0; i < serial[0].per_seed.size(); ++i) {
        SCOPED_TRACE("seed " + std::to_string(sweep.seeds[i]));
        test::expect_results_identical(serial[0].per_seed[i],
                                       parallel[0].per_seed[i]);
    }

    const auto& a = serial[0].aggregate;
    const auto& b = parallel[0].aggregate;
    ASSERT_EQ(a.metrics.size(), b.metrics.size());
    for (std::size_t m = 0; m < a.metrics.size(); ++m) {
        SCOPED_TRACE(a.metrics[m].name);
        ASSERT_EQ(a.metrics[m].name, b.metrics[m].name);
        ASSERT_EQ(a.metrics[m].summary.count, b.metrics[m].summary.count);
        ASSERT_EQ(a.metrics[m].summary.mean, b.metrics[m].summary.mean);
        ASSERT_EQ(a.metrics[m].summary.stddev,
                  b.metrics[m].summary.stddev);
        ASSERT_EQ(a.metrics[m].summary.min, b.metrics[m].summary.min);
        ASSERT_EQ(a.metrics[m].summary.max, b.metrics[m].summary.max);
        ASSERT_EQ(a.metrics[m].summary.ci95, b.metrics[m].summary.ci95);
    }
}

/**
 * Golden sweep aggregate: the notebookos-fast sweep over seeds {1..8} on
 * the canonical tiny trace is pinned to values captured when the
 * subsystem was introduced. Any change to the fast engine's decision
 * stream, the metric extraction, or the fold order shows up here.
 * Continuous metrics are compared at 1e-9 relative tolerance (libm
 * differences across toolchains can move the last couple of bits);
 * count-valued metrics must match exactly.
 */
TEST(DeterminismTest, SeedSweepAggregateMatchesGolden)
{
    const auto trace = test::tiny_trace();
    core::SweepSpec sweep;
    sweep.base.engine = core::kEngineFast;
    sweep.base.trace = &trace;
    sweep.base.config = core::PlatformConfig::prototype_defaults();
    sweep.seeds = core::seed_range(1, 8);
    const auto outcomes = core::SeedSweep().run({sweep});
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;

    struct Golden
    {
        const char* name;
        double mean;
        double stddev;
        double min;
        double max;
    };
    // Captured at introduction (seeds 1..8, tiny_trace defaults).
    const Golden kGolden[] = {
        {"gpu_hours_provisioned", 72.383644375000003, 2.3208544595375282,
         69.355239142222217, 74.154421204444446},
        {"gpu_hours_committed", 12.047496458680557,
         2.3042865466206673e-05, 12.047459285833334, 12.047526624722222},
        {"interactivity_p50_s", 0.20139018749999998,
         0.010903216012906789, 0.18304700000000002, 0.2149075},
        {"interactivity_p99_s", 0.29383727250000002,
         0.0060936764193213096, 0.28561073000000003,
         0.30132015000000001},
        {"tct_p50_ms", 154605.7746875, 41.309310322886006,
         154560.72950000002, 154664.50599999999},
        {"tct_p99_ms", 1954545.2075024999, 44.201468731283818,
         1954474.3545000001, 1954597.9344099998},
        {"sync_p50_ms", 0.0, 0.0, 0.0, 0.0},
        {"tasks_completed", 62.0, 0.0, 62.0, 62.0},
        {"tasks_aborted", 0.0, 0.0, 0.0, 0.0},
        {"migrations", 0.0, 0.0, 0.0, 0.0},
        {"scale_outs", 10.0, 4.1403933560541253, 7.0, 15.0},
        {"store_mb_written", 0.0, 0.0, 0.0, 0.0},
    };
    const auto& metrics = outcomes[0].aggregate.metrics;
    ASSERT_EQ(metrics.size(), std::size(kGolden));
    const auto near = [](double want) {
        return 1e-9 * std::max(1.0, std::abs(want));
    };
    for (std::size_t m = 0; m < metrics.size(); ++m) {
        SCOPED_TRACE(kGolden[m].name);
        ASSERT_EQ(metrics[m].name, std::string(kGolden[m].name));
        ASSERT_EQ(metrics[m].summary.count, 8u);
        ASSERT_NEAR(metrics[m].summary.mean, kGolden[m].mean,
                    near(kGolden[m].mean));
        ASSERT_NEAR(metrics[m].summary.stddev, kGolden[m].stddev,
                    near(kGolden[m].stddev));
        ASSERT_NEAR(metrics[m].summary.min, kGolden[m].min,
                    near(kGolden[m].min));
        ASSERT_NEAR(metrics[m].summary.max, kGolden[m].max,
                    near(kGolden[m].max));
    }
}

/** The sharded prototype engine is deterministic too: same seed, same
 *  shard count -> bit-identical results. */
TEST(DeterminismTest, ShardedPrototypeSameSeedBitIdentical)
{
    const auto trace = test::tiny_trace(8, 2 * sim::kHour);
    core::PlatformConfig config =
        test::platform_config(core::Policy::kNotebookOS, /*seed=*/33);
    config.scheduler.shards = 3;
    const auto a = test::run_config(config, trace);
    const auto b = test::run_config(config, trace);
    test::expect_results_identical(a, b);
}

/** Shards share no mutable state, so running the shard event loops on
 *  parallel threads inside each lockstep window must be bit-identical to
 *  sweeping them serially — the sharding analogue of
 *  RunnerParallelExecutionBitIdenticalToSerial. */
TEST(DeterminismTest, ShardedPrototypeParallelBitIdenticalToSerial)
{
    const auto trace = test::tiny_trace(8, 2 * sim::kHour);
    core::PlatformConfig config =
        test::platform_config(core::Policy::kNotebookOS, /*seed=*/11);
    config.scheduler.shards = 4;
    config.scheduler.shard_parallel = true;
    const auto parallel = test::run_config(config, trace);
    config.scheduler.shard_parallel = false;
    const auto serial = test::run_config(config, trace);
    test::expect_results_identical(parallel, serial);
}

/** The sharded FAST engine is deterministic: same seed, same shard
 *  count -> bit-identical results, through the whole merge pipeline
 *  (tasks, events, timelines, latency distributions). */
TEST(DeterminismTest, ShardedFastSameSeedBitIdentical)
{
    const auto trace = test::tiny_trace(16, 3 * sim::kHour);
    core::PlatformConfig config = test::platform_config(
        core::Policy::kNotebookOS, /*seed=*/33, /*fast=*/true);
    config.scheduler.shards = 4;
    const auto a = test::run_config(config, trace);
    const auto b = test::run_config(config, trace);
    test::expect_results_identical(a, b);
}

/** Fast shards share nothing and merge in shard order, so running them
 *  on concurrent threads must be bit-identical to running them serially
 *  — the fast-engine analogue of ShardedPrototypeParallel...  */
TEST(DeterminismTest, ShardedFastParallelBitIdenticalToSerial)
{
    const auto trace = test::tiny_trace(16, 3 * sim::kHour);
    core::PlatformConfig config = test::platform_config(
        core::Policy::kNotebookOS, /*seed=*/11, /*fast=*/true);
    config.scheduler.shards = 4;
    config.scheduler.shard_parallel = true;
    const auto parallel = test::run_config(config, trace);
    config.scheduler.shard_parallel = false;
    const auto serial = test::run_config(config, trace);
    test::expect_results_identical(parallel, serial);
}

/** The non-static routing policies keep the whole determinism contract
 *  on the prototype engine: same seed -> bit-identical, and parallel
 *  lockstep windows ≡ serial sweeps (migration plans are pure functions
 *  of shard-order-merged loads, so the windowed drivers never observe
 *  thread timing). */
TEST(DeterminismTest, RoutedPrototypeDeterministicAndParallelAgnostic)
{
    const auto trace = test::tiny_trace(8, 2 * sim::kHour);
    for (const sched::RoutingPolicyKind routing :
         {sched::RoutingPolicyKind::kLeastLoaded,
          sched::RoutingPolicyKind::kRebalance}) {
        SCOPED_TRACE(sched::to_string(routing));
        core::PlatformConfig config =
            test::platform_config(core::Policy::kNotebookOS, /*seed=*/21);
        config.scheduler.shards = 3;
        config.scheduler.routing = routing;
        config.scheduler.shard_parallel = false;
        const auto serial_a = test::run_config(config, trace);
        const auto serial_b = test::run_config(config, trace);
        test::expect_results_identical(serial_a, serial_b);
        config.scheduler.shard_parallel = true;
        const auto parallel = test::run_config(config, trace);
        test::expect_results_identical(serial_a, parallel);
    }
}

/** Same contract for the sharded fast engine under the non-static
 *  routing policies (rebalance exercises the windowed injection path). */
TEST(DeterminismTest, RoutedFastDeterministicAndParallelAgnostic)
{
    const auto trace = test::tiny_trace(16, 3 * sim::kHour);
    for (const sched::RoutingPolicyKind routing :
         {sched::RoutingPolicyKind::kLeastLoaded,
          sched::RoutingPolicyKind::kRebalance}) {
        SCOPED_TRACE(sched::to_string(routing));
        core::PlatformConfig config = test::platform_config(
            core::Policy::kNotebookOS, /*seed=*/21, /*fast=*/true);
        config.scheduler.shards = 4;
        config.scheduler.routing = routing;
        config.scheduler.shard_parallel = false;
        const auto serial_a = test::run_config(config, trace);
        const auto serial_b = test::run_config(config, trace);
        test::expect_results_identical(serial_a, serial_b);
        config.scheduler.shard_parallel = true;
        const auto parallel = test::run_config(config, trace);
        test::expect_results_identical(serial_a, parallel);
    }
}

/** Chaos-enabled prototype runs honor the same contract: same seed, same
 *  generated fault plan, bit-identical results — including the injected
 *  fault stream itself (the serialized RECORD schedules must match). */
TEST(DeterminismTest, ChaosSameSeedBitIdentical)
{
    const auto trace = test::tiny_trace(8, 2 * sim::kHour);
    core::PlatformConfig config =
        test::platform_config(core::Policy::kNotebookOS, /*seed=*/33);
    config.scheduler.chaos.enabled = true;
    config.scheduler.chaos.options.start = 10 * sim::kMinute;
    config.scheduler.chaos.options.horizon = 90 * sim::kMinute;
    config.scheduler.chaos.options.rates =
        chaos::ChaosRates{2.0, 2.0, 1.0, 1.0, 1.0};
    auto record_a = std::make_shared<chaos::RecordSink>();
    auto record_b = std::make_shared<chaos::RecordSink>();
    config.scheduler.chaos.record = record_a;
    const auto a = test::run_config(config, trace);
    config.scheduler.chaos.record = record_b;
    const auto b = test::run_config(config, trace);
    test::expect_results_identical(a, b);
    EXPECT_EQ(record_a->serialize(), record_b->serialize());
    EXPECT_GT(a.net_stats.dropped_chaos +
                  static_cast<std::uint64_t>(a.net_stats.blocked_partition),
              0u);
}

/** REPLAY is byte-faithful: re-executing a RECORDed schedule reproduces
 *  both the experiment results and the fault stream bit-for-bit. */
TEST(DeterminismTest, ChaosReplayMatchesRecord)
{
    const auto trace = test::tiny_trace(8, 2 * sim::kHour);
    core::PlatformConfig config =
        test::platform_config(core::Policy::kNotebookOS, /*seed=*/33);
    config.scheduler.chaos.enabled = true;
    config.scheduler.chaos.options.start = 10 * sim::kMinute;
    config.scheduler.chaos.options.horizon = 90 * sim::kMinute;
    config.scheduler.chaos.options.rates =
        chaos::ChaosRates{2.0, 2.0, 1.0, 1.0, 1.0};
    auto recorded = std::make_shared<chaos::RecordSink>();
    config.scheduler.chaos.record = recorded;
    const auto original = test::run_config(config, trace);
    const std::string schedule_text = recorded->serialize();

    core::PlatformConfig replay =
        test::platform_config(core::Policy::kNotebookOS, /*seed=*/33);
    replay.scheduler.chaos.enabled = true;
    replay.scheduler.chaos.replay =
        std::make_shared<const chaos::ScheduleFile>(
            chaos::parse_schedule(schedule_text));
    auto replayed = std::make_shared<chaos::RecordSink>();
    replay.scheduler.chaos.record = replayed;
    const auto rerun = test::run_config(replay, trace);

    test::expect_results_identical(original, rerun);
    EXPECT_EQ(replayed->serialize(), schedule_text);
}

/** FNV-1a over a serialized trace: the golden fingerprint the profile
 *  determinism pins below use. */
std::uint64_t
trace_bytes_fnv1a(const std::string& bytes)
{
    std::uint64_t hash = 14695981039346656037ULL;
    for (const unsigned char byte : bytes) {
        hash ^= byte;
        hash *= 1099511628211ULL;
    }
    return hash;
}

std::string
profile_trace_bytes(const workload::WorkloadProfile& profile,
                    std::uint64_t seed,
                    const workload::GeneratorOptions& options)
{
    std::ostringstream out;
    workload::save_trace(profile.generate(seed, options), out);
    return out.str();
}

/**
 * Golden trace hashes for every built-in profile at seeds 1..4 (4-hour
 * makespan, 24-session cap). The adobe/philly/alibaba rows double as the
 * guarantee that the profile layer never moved the three historical
 * calibrations; the other rows pin the new arrival processes. Any
 * legitimate distribution change must regenerate this table on purpose.
 */
TEST(ProfileDeterminismTest, ProfileTraceBytesMatchGoldenHashes)
{
    const struct
    {
        const char* name;
        std::uint64_t hash[4];
    } goldens[] = {
        {"adobe",
         {0x06f5b921f4484e93ULL, 0xc5038f2a85b04a9dULL,
          0x4038e67d9535ca89ULL, 0x17cfcd7c36c86c67ULL}},
        {"alibaba",
         {0x03ded11cfeb88698ULL, 0x8ede5ccc84a8c0beULL,
          0x4892b305c63051e2ULL, 0x4e297564133f735eULL}},
        {"batch_interactive",
         {0xb4575935d3d8dfc1ULL, 0xe09805dffb301b5bULL,
          0x1199c03ea40b2ee0ULL, 0xae3a51f3f6945eecULL}},
        {"diurnal",
         {0xa8f9a92b640f364dULL, 0x341e484f7c3e4c54ULL,
          0x2f5f471a926fa522ULL, 0xdf14a2302b204dfeULL}},
        {"flash_crowd",
         {0x40045f8017d617bcULL, 0x804effd94c76ced6ULL,
          0x117f59d7fae6d0cfULL, 0x7fd179384cef2d85ULL}},
        {"heavy_tail",
         {0xe2c51f9bc551796fULL, 0x6ecfe81a5970ef37ULL,
          0x5fe0543ac51543f7ULL, 0x955c1cd0d0da92bcULL}},
        {"multi_tenant",
         {0xde9e9ee55afd529bULL, 0x47d2af59ce0a7964ULL,
          0xb4f621fccf627927ULL, 0xd0e47898e13892bcULL}},
        {"philly",
         {0x175cc215670ea25fULL, 0x77da7201dc845752ULL,
          0x44aebebf7a68b9a4ULL, 0xfd763cf65632361cULL}},
    };
    workload::GeneratorOptions options;
    options.makespan = 4 * sim::kHour;
    options.max_sessions = 24;
    const workload::ProfileRegistry& registry =
        workload::ProfileRegistry::instance();
    EXPECT_EQ(registry.names().size(), std::size(goldens));
    for (const auto& golden : goldens) {
        SCOPED_TRACE(golden.name);
        const auto profile = registry.create(golden.name);
        ASSERT_NE(profile, nullptr);
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            const std::string bytes =
                profile_trace_bytes(*profile, seed, options);
            EXPECT_EQ(trace_bytes_fnv1a(bytes), golden.hash[seed - 1])
                << "seed " << seed;
        }
    }
}

/** Chunked generate-to-stream is byte-identical to materializing the
 *  trace and saving it, for every profile. */
TEST(ProfileDeterminismTest, StreamedGenerateMatchesMaterializedSave)
{
    workload::GeneratorOptions options;
    options.makespan = 3 * sim::kHour;
    options.max_sessions = 16;
    const workload::ProfileRegistry& registry =
        workload::ProfileRegistry::instance();
    for (const std::string& name : registry.names()) {
        SCOPED_TRACE(name);
        const auto profile = registry.create(name);
        ASSERT_NE(profile, nullptr);
        std::ostringstream streamed;
        workload::generate_trace_stream(*profile, /*seed=*/9, options,
                                        streamed);
        EXPECT_EQ(streamed.str(),
                  profile_trace_bytes(*profile, /*seed=*/9, options));
    }
}

/** Streamed profile runs keep the same-seed contract end to end: two
 *  fresh streams of the same profile through the fast driver are
 *  bit-identical. */
TEST(ProfileDeterminismTest, FastStreamedProfileRunSameSeedBitIdentical)
{
    workload::GeneratorOptions options;
    options.makespan = 2 * sim::kHour;
    options.max_sessions = 24;
    options.arrival_rate_scale = 4.0;
    const auto profile = workload::ProfileRegistry::instance().create(
        workload::kProfileFlashCrowd);
    ASSERT_NE(profile, nullptr);
    core::PlatformConfig config = test::platform_config(
        core::Policy::kNotebookOS, /*seed=*/33, /*fast=*/true);
    config.scheduler.shards = 4;
    config.scheduler.routing = sched::RoutingPolicyKind::kLeastLoaded;
    config.scheduler.shard_parallel = true;
    const auto run_stream = [&] {
        const auto source = profile->open(/*seed=*/33, options);
        core::RunRequest request;
        request.config = config;
        request.source = source.get();
        return core::run(request);
    };
    const core::RunResponse a = run_stream();
    const core::RunResponse b = run_stream();
    test::expect_results_identical(a.results, b.results);
    EXPECT_EQ(a.events_executed, b.events_executed);
    EXPECT_GT(a.results.tasks.size(), 0u);
}

/** The hierarchical timer wheel is a pure staging structure: a full
 *  prototype-engine run with the wheel disabled (heap-only Simulation)
 *  must be bit-identical to the default wheel-backed run. This pins the
 *  wheel's firing order at whole-engine scale, on top of the event-level
 *  pins in timer_wheel_test. */
TEST(TimerWheelDeterminismTest, WheelAndHeapEngineRunsBitIdentical)
{
    const auto trace = test::tiny_trace(8, 2 * sim::kHour);

    const auto run_with_wheel = [&trace](bool wheel) {
        sim::Simulation::Options options;
        options.timer_wheel = wheel;
        options.recycle = nullptr;
        sim::Simulation simulation(options);
        std::vector<std::pair<sim::Time, int>> fired;
        sim::Rng rng(21);
        std::vector<sim::EventId> timers;
        // Election-churn shape over the trace horizon: staged far-future
        // timers cancelled and re-armed from near-term events.
        for (int k = 0; k < 16; ++k) {
            timers.push_back(simulation.schedule_after(
                static_cast<sim::Time>(
                    rng.uniform(2.0 * sim::kSecond, 4.0 * sim::kSecond)),
                [&fired, &simulation, k] {
                    fired.emplace_back(simulation.now(), k);
                }));
        }
        for (int round = 1; round <= 30; ++round) {
            const sim::Time tick = round * sim::kSecond;
            simulation.schedule_at(tick, [&] {
                for (int k = 0; k < 16; ++k) {
                    if (simulation.cancel(
                            timers[static_cast<std::size_t>(k)])) {
                        timers[static_cast<std::size_t>(k)] =
                            simulation.schedule_after(
                                static_cast<sim::Time>(rng.uniform(
                                    2.0 * sim::kSecond,
                                    4.0 * sim::kSecond)),
                                [&fired, &simulation, k] {
                                    fired.emplace_back(simulation.now(),
                                                       k + 1000);
                                });
                    }
                }
            });
        }
        simulation.run_until(40 * sim::kSecond);
        return fired;
    };

    const auto with_wheel = run_with_wheel(true);
    const auto heap_only = run_with_wheel(false);
    ASSERT_EQ(with_wheel.size(), heap_only.size());
    for (std::size_t i = 0; i < with_wheel.size(); ++i) {
        EXPECT_EQ(with_wheel[i], heap_only[i]) << "firing " << i;
    }

    // And the full engines (which always run wheel-backed Simulations)
    // still reproduce themselves run to run over the same trace.
    const auto a = test::run_policy(trace, core::Policy::kNotebookOS, 21);
    const auto b = test::run_policy(trace, core::Policy::kNotebookOS, 21);
    test::expect_results_identical(a, b);
}

/** Results plus the deterministic telemetry of two core::run calls. */
void
expect_runs_identical(const core::RunResponse& a, const core::RunResponse& b)
{
    test::expect_results_identical(a.results, b.results);
    EXPECT_EQ(a.events_executed, b.events_executed);
    EXPECT_EQ(a.shard_events, b.shard_events);
    EXPECT_EQ(a.sessions_rebalanced, b.sessions_rebalanced);
}

/**
 * The driver-equivalence pin. Each NotebookOS engine has one windowed
 * driver behind core::run; for every routing policy and shard count it
 * must give bit-identical results (telemetry counters included) for a
 * trace and for a TraceSessionSource over it — two same-seed runs — and
 * for parallel and serial shards. Every run's one outcome table comes out
 * in (submit, session, seq) order with no merge or sort.
 */
TEST(DriverDeterminismTest, TraceSourceParallelAndSerialRunsAgree)
{
    const auto trace = test::tiny_trace(8, 2 * sim::kHour);
    for (const char* engine : {core::kEnginePrototype, core::kEngineFast}) {
        for (const sched::RoutingPolicyKind routing :
             {sched::RoutingPolicyKind::kStaticHash,
              sched::RoutingPolicyKind::kLeastLoaded,
              sched::RoutingPolicyKind::kRebalance}) {
            for (const std::int32_t shards : {1, 3}) {
                SCOPED_TRACE(std::string(engine) + " " +
                             sched::to_string(routing) +
                             " shards=" + std::to_string(shards));
                core::RunRequest request;
                request.engine = engine;
                request.config = core::PlatformConfig::prototype_defaults();
                request.config.scheduler.shard_parallel = false;
                request.seed = 21;
                request.shards = shards;
                request.routing = routing;
                request.trace = &trace;
                const core::RunResponse serial = core::run(request);
                ASSERT_GT(serial.results.tasks.size(), 0u);
                EXPECT_TRUE(test::in_submit_order(serial.results.tasks));

                workload::TraceSessionSource source(trace);
                request.trace = nullptr;
                request.source = &source;
                expect_runs_identical(serial, core::run(request));

                request.config.scheduler.shard_parallel = true;
                request.source = nullptr;
                request.trace = &trace;
                expect_runs_identical(serial, core::run(request));
            }
        }
    }
}

/** A cell with no explicit program runs its session's generated one, so
 *  spelling that program out in every cell changes nothing: the
 *  prototype derives at submit exactly the text it is otherwise handed. */
TEST(DriverDeterminismTest, ExplicitGeneratedProgramRunsIdentically)
{
    const auto derived = test::tiny_trace(8, 2 * sim::kHour);
    workload::Trace spelled_out = derived;
    for (workload::SessionSpec& session : spelled_out.sessions) {
        for (workload::CellTask& task : session.tasks) {
            ASSERT_TRUE(task.code.empty());
            task.code = workload::cell_code(session, task);
        }
    }
    core::RunRequest request;
    request.engine = core::kEnginePrototype;
    request.config = core::PlatformConfig::prototype_defaults();
    request.seed = 21;
    request.trace = &derived;
    const core::RunResponse run = core::run(request);
    ASSERT_EQ(run.results.tasks.size(), derived.task_count());
    ASSERT_GT(run.results.tasks.size(), 0u);
    request.trace = &spelled_out;
    expect_runs_identical(run, core::run(request));
}

/** Where the fast driver stops decides only when sessions are admitted
 *  and their events handed over, never what runs. On one shard nothing
 *  can move, so a pinned policy — admitting ahead, then hourly once more
 *  than kAdmitAhead sessions are live — matches rebalance, which stops at
 *  every window. The trace is dense enough to reach the hourly stops, and
 *  every event lands on an autoscaler tick, so an event scheduled in the
 *  wrong window would reorder against the tick. */
TEST(DriverDeterminismTest, PinnedStopsMatchStoppingEveryWindow)
{
    const sim::Time tick =
        core::PlatformConfig::prototype_defaults().scheduler.autoscale_interval;
    workload::Trace trace;
    trace.name = "dense";
    trace.makespan = 4 * sim::kHour;
    sim::Rng rng = test::seeded_rng(5);
    for (workload::SessionId id = 0; id < 4000; ++id) {
        workload::SessionSpec session;
        session.id = id;
        session.start_time = rng.uniform_int(0, 3 * sim::kHour / tick) * tick;
        session.end_time = session.start_time + 45 * sim::kMinute;
        session.resources = cluster::ResourceSpec{4000, 16384, 1, 16.0};
        for (std::int32_t seq = 0; seq < 2; ++seq) {
            workload::CellTask task;
            task.session = id;
            task.seq = seq;
            task.submit_time =
                session.start_time + (seq + 1) * 10 * sim::kMinute;
            task.duration = 90 * sim::kSecond;
            session.tasks.push_back(task);
        }
        trace.sessions.push_back(std::move(session));
    }

    core::RunRequest request;
    request.engine = core::kEngineFast;
    request.config = core::PlatformConfig::prototype_defaults();
    request.trace = &trace;
    request.shards = 1;
    request.routing = sched::RoutingPolicyKind::kStaticHash;
    const core::RunResponse pinned = core::run(request);
    request.routing = sched::RoutingPolicyKind::kRebalance;
    const core::RunResponse every_window = core::run(request);
    ASSERT_EQ(pinned.results.tasks.size(), trace.task_count());
    expect_runs_identical(pinned, every_window);
}

/** Append @p word to @p bytes, low byte first. */
void
append_word(std::string& bytes, std::int64_t word)
{
    for (int byte = 0; byte < 8; ++byte) {
        bytes.push_back(static_cast<char>(
            (static_cast<std::uint64_t>(word) >> (8 * byte)) & 0xff));
    }
}

std::uint64_t
rows_fingerprint(const std::vector<core::TaskOutcome>& tasks)
{
    std::string bytes;
    for (const core::TaskOutcome& t : tasks) {
        for (const std::int64_t word :
             {t.session, std::int64_t{t.seq}, std::int64_t{t.gpus},
              std::int64_t{t.is_gpu}, std::int64_t{t.migrated},
              std::int64_t{t.aborted}, t.submit, t.exec_start, t.exec_end,
              t.reply, t.gs_received, t.gs_dispatched, t.replica_received,
              t.replica_replied, t.election_latency}) {
            append_word(bytes, word);
        }
    }
    return trace_bytes_fnv1a(bytes);
}

std::uint64_t
series_fingerprint(const metrics::TimeSeries& series)
{
    std::string bytes;
    for (const metrics::Sample& sample : series.samples()) {
        append_word(bytes, sample.time);
        append_word(bytes, std::bit_cast<std::int64_t>(sample.value));
    }
    return trace_bytes_fnv1a(bytes);
}

/**
 * The prototype's drain stops at the first window boundary where every
 * shard is settled, instead of running kDrainWindow of idle Raft
 * heartbeats for the kernels of sessions that outlive the trace. Nothing
 * an output reads may move: the outcome rows, the fleet series, the
 * scheduler counters and the latency sample counts equal the values of
 * the full 12 h drain (captured before the early stop), and the cell
 * still running at the makespan completes. Only the idle work shrinks: fewer messages and events than
 * the full drain's 613,288 and 776,606.
 */
TEST(DriverDeterminismTest, DrainStopsOnceSettledWithoutMovingOutputs)
{
    workload::Trace trace;
    trace.name = "outlive";
    trace.makespan = 2 * sim::kHour;
    for (workload::SessionId id = 0; id < 4; ++id) {
        workload::SessionSpec session;
        session.id = id;
        session.start_time = id * 10 * sim::kMinute;
        // Session 1 ends mid-trace; the others outlive the makespan.
        session.end_time = id == 1 ? 90 * sim::kMinute : 10 * sim::kHour;
        session.resources = cluster::ResourceSpec{4000, 16384, 1, 16.0};
        session.model = "resnet18";
        session.dataset = "cifar10";
        for (std::int32_t seq = 0; seq < 3; ++seq) {
            workload::CellTask task;
            task.session = id;
            task.seq = seq;
            task.submit_time =
                session.start_time + (seq + 1) * 20 * sim::kMinute;
            task.duration = 2 * sim::kMinute;
            task.is_gpu = !(id == 2 && seq == 1);
            session.tasks.push_back(task);
        }
        trace.sessions.push_back(std::move(session));
    }
    workload::CellTask running;
    running.session = 3;
    running.seq = 3;
    running.submit_time = trace.makespan - 5 * sim::kMinute;
    running.duration = 30 * sim::kMinute;
    trace.sessions[3].tasks.push_back(running);

    core::RunRequest request;
    request.engine = core::kEnginePrototype;
    request.config = core::PlatformConfig::prototype_defaults();
    request.seed = 21;
    request.trace = &trace;
    const core::RunResponse run = core::run(request);
    const core::ExperimentResults& results = run.results;
    ASSERT_EQ(results.tasks.size(), trace.task_count());
    const core::TaskOutcome& last = results.tasks.back();
    ASSERT_EQ(last.session, 3);
    ASSERT_EQ(last.seq, 3);
    EXPECT_FALSE(last.aborted);
    EXPECT_GT(last.exec_end, trace.makespan);
    EXPECT_GE(last.reply, last.exec_end);
    EXPECT_EQ(results.aborted_count(), 0u);

    EXPECT_EQ(rows_fingerprint(results.tasks), 11411902862403599810ULL);
    EXPECT_EQ(series_fingerprint(results.provisioned_gpus),
              9987263711016108997ULL);
    EXPECT_EQ(series_fingerprint(results.subscription_ratio),
              17220897904256717778ULL);
    EXPECT_EQ(series_fingerprint(results.committed_gpus),
              14348952181591902454ULL);
    EXPECT_EQ(results.sync_ms.count(), 9u);
    EXPECT_EQ(results.read_ms.count(), 1u);
    EXPECT_EQ(results.write_ms.count(), 20u);
    const sched::SchedulerStats want{.kernels_created = 4,
                                     .executions_completed = 13,
                                     .scale_ins = 1,
                                     .yield_conversions = 12,
                                     .immediate_commits = 12,
                                     .executor_reuses = 8,
                                     .gpu_executions = 12,
                                     .cold_starts = 12};
    EXPECT_TRUE(results.sched_stats == want);
    EXPECT_LT(results.net_stats.sent, 613288u);
    EXPECT_LT(run.events_executed, 776606u);
}

}  // namespace
}  // namespace nbos
