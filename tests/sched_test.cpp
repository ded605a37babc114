/**
 * @file
 * Tests for placement, auto-scaling, and the Global Scheduler end-to-end
 * (kernel creation, execution routing, yield conversion, migration on
 * failed elections, failover, scale-out).
 */
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sched/autoscaler.hpp"
#include "sched/placement.hpp"
#include "sched/routing.hpp"
#include "sched/shard.hpp"
#include "sched/shard_router.hpp"
#include "sim/lockstep.hpp"
#include "sim/simulation.hpp"

namespace nbos::sched {
namespace {

cluster::ResourceSpec
kernel_request(std::int32_t gpus)
{
    return cluster::ResourceSpec{4000 * gpus, 16384LL * gpus, gpus,
                                 16.0 * gpus};
}

TEST(PlacementTest, PicksDistinctLeastLoadedServers)
{
    cluster::Cluster cluster;
    cluster::GpuServer& a = cluster.add_server();
    cluster.add_server();
    cluster.add_server();
    a.commit(kernel_request(4));  // a is the busiest
    LeastLoadedPolicy policy;
    const auto picked = policy.pick(cluster, kernel_request(1), 2, 3);
    ASSERT_EQ(picked.size(), 2u);
    EXPECT_NE(picked[0], picked[1]);
    EXPECT_NE(picked[0], a.id());
    EXPECT_NE(picked[1], a.id());
}

TEST(PlacementTest, InsufficientServersReturnsShortList)
{
    cluster::Cluster cluster;
    cluster.add_server();
    LeastLoadedPolicy policy;
    EXPECT_EQ(policy.pick(cluster, kernel_request(1), 3, 3).size(), 1u);
}

TEST(PlacementTest, OversizedRequestRejected)
{
    cluster::Cluster cluster;
    cluster.add_server();
    LeastLoadedPolicy policy;
    EXPECT_TRUE(policy.pick(cluster, kernel_request(16), 1, 3).empty());
}

TEST(PlacementTest, SrCapRejectsOversubscribedServer)
{
    cluster::Cluster cluster;
    cluster::GpuServer& a = cluster.add_server();
    cluster::GpuServer& b = cluster.add_server();
    // a's SR with one more 8-GPU kernel would be (24+8)/(8*3) = 1.33 > 1.
    for (int i = 0; i < 3; ++i) {
        a.subscribe(kernel_request(8));
    }
    LeastLoadedPolicy policy(1.0);
    // Cluster SR = 24/(16*3) = 0.5 < watermark 1.0 -> limit 1.0.
    const auto picked = policy.pick(cluster, kernel_request(8), 2, 3);
    ASSERT_EQ(picked.size(), 1u);
    EXPECT_EQ(picked[0], b.id());
}

TEST(PlacementTest, DynamicLimitRisesWithClusterSr)
{
    cluster::Cluster cluster;
    cluster::GpuServer& a = cluster.add_server();
    cluster::GpuServer& b = cluster.add_server();
    for (int i = 0; i < 9; ++i) {
        a.subscribe(kernel_request(8));
    }
    for (int i = 0; i < 7; ++i) {
        b.subscribe(kernel_request(8));
    }
    LeastLoadedPolicy policy(3.0);
    // Cluster SR = 128/(16*3) = 2.67: the dynamic limit follows it upward.
    // Server a would land above the hard watermark (3.04 > 3) and is
    // rejected outright; b (2.38) is accepted.
    EXPECT_NEAR(cluster.cluster_subscription_ratio(3), 128.0 / 48.0, 1e-9);
    const auto picked = policy.pick(cluster, kernel_request(1), 2, 3);
    ASSERT_EQ(picked.size(), 1u);
    EXPECT_EQ(picked[0], b.id());
}

TEST(PlacementTest, ZeroCapacityClusterYieldsNoPlacement)
{
    cluster::Cluster cluster;  // no servers at all
    LeastLoadedPolicy least_loaded;
    EXPECT_TRUE(least_loaded.pick(cluster, kernel_request(1), 3, 3).empty());
}

TEST(PlacementTest, SingleServerCapsReplicaSpread)
{
    cluster::Cluster cluster;
    cluster.add_server();
    LeastLoadedPolicy policy;
    // Three replicas requested, one server available: the short list
    // signals the scheduler to scale out rather than co-locating.
    const auto picked = policy.pick(cluster, kernel_request(1), 3, 3);
    ASSERT_EQ(picked.size(), 1u);
}

TEST(AutoScalerTest, ScalesOutWhenCommittedNearCapacity)
{
    AutoScalerInputs inputs;
    inputs.committed_gpus = 60;
    inputs.total_gpus = 64;
    inputs.gpus_per_server = 8;
    inputs.current_servers = 8;
    AutoScalerConfig config;
    config.multiplier = 1.05;
    config.buffer_servers = 2;
    const auto decision = evaluate_autoscaler(inputs, config);
    // ceil(63/8)=8 + 2 buffer = 10 desired -> add 2.
    EXPECT_EQ(decision.add_servers, 2);
    EXPECT_EQ(decision.remove_servers, 0);
}

TEST(AutoScalerTest, IdleClusterScalesIn)
{
    AutoScalerInputs inputs;
    inputs.committed_gpus = 0;
    inputs.total_gpus = 80;
    inputs.gpus_per_server = 8;
    inputs.current_servers = 10;
    inputs.idle_servers = 6;
    AutoScalerConfig config;
    config.buffer_servers = 2;
    config.min_servers = 1;
    const auto decision = evaluate_autoscaler(inputs, config);
    EXPECT_EQ(decision.add_servers, 0);
    // Gradual: at most 2 at a time.
    EXPECT_EQ(decision.remove_servers, 2);
}

TEST(AutoScalerTest, ScaleInLimitedByIdleServers)
{
    AutoScalerInputs inputs;
    inputs.committed_gpus = 0;
    inputs.total_gpus = 80;
    inputs.gpus_per_server = 8;
    inputs.current_servers = 10;
    inputs.idle_servers = 1;
    const auto decision = evaluate_autoscaler(inputs, AutoScalerConfig{});
    EXPECT_EQ(decision.remove_servers, 1);
}

TEST(AutoScalerTest, SteadyStateNoAction)
{
    AutoScalerInputs inputs;
    inputs.committed_gpus = 20;
    inputs.total_gpus = 40;
    inputs.gpus_per_server = 8;
    inputs.current_servers = 5;
    inputs.idle_servers = 0;
    AutoScalerConfig config;
    config.buffer_servers = 2;
    const auto decision = evaluate_autoscaler(inputs, config);
    // desired = ceil(21/8)=3 +2 = 5 == current.
    EXPECT_EQ(decision.add_servers, 0);
    EXPECT_EQ(decision.remove_servers, 0);
}

TEST(AutoScalerTest, MinServersFloorRespected)
{
    AutoScalerInputs inputs;
    inputs.committed_gpus = 0;
    inputs.total_gpus = 16;
    inputs.gpus_per_server = 8;
    inputs.current_servers = 2;
    inputs.idle_servers = 2;
    AutoScalerConfig config;
    config.buffer_servers = 0;
    config.min_servers = 2;
    const auto decision = evaluate_autoscaler(inputs, config);
    EXPECT_EQ(decision.remove_servers, 0);
}

/** Scale-down hysteresis: releases are gradual (max_release_per_step per
 *  evaluation), so repeated evaluations walk the fleet down to the
 *  desired size step by step and then go quiet — no oscillation. */
TEST(AutoScalerTest, ScaleDownHysteresisConvergesWithoutOscillation)
{
    AutoScalerInputs inputs;
    inputs.committed_gpus = 0;
    inputs.gpus_per_server = 8;
    inputs.current_servers = 11;
    inputs.total_gpus = 88;
    inputs.idle_servers = 11;
    AutoScalerConfig config;
    config.buffer_servers = 2;
    config.min_servers = 1;
    // desired = ceil(0/8) + 2 = 2: expect 11 -> 9 -> 7 -> 5 -> 3 -> 2.
    const std::int32_t expected_steps[] = {2, 2, 2, 2, 1};
    for (const std::int32_t expected : expected_steps) {
        const auto decision = evaluate_autoscaler(inputs, config);
        EXPECT_EQ(decision.add_servers, 0);
        ASSERT_EQ(decision.remove_servers, expected)
            << "at " << inputs.current_servers << " servers";
        inputs.current_servers -= decision.remove_servers;
        inputs.idle_servers -= decision.remove_servers;
        inputs.total_gpus -= decision.remove_servers * 8;
    }
    EXPECT_EQ(inputs.current_servers, 2);
    // Converged: the next evaluation is a no-op in both directions.
    const auto steady = evaluate_autoscaler(inputs, config);
    EXPECT_EQ(steady.add_servers, 0);
    EXPECT_EQ(steady.remove_servers, 0);
}

/** The scaling buffer is the hysteresis band: a demand drop that stays
 *  within the buffer must not trigger a scale-in. */
TEST(AutoScalerTest, BufferAbsorbsSmallDemandDrops)
{
    AutoScalerInputs inputs;
    inputs.committed_gpus = 30;
    inputs.gpus_per_server = 8;
    inputs.current_servers = 6;
    inputs.total_gpus = 48;
    inputs.idle_servers = 2;
    AutoScalerConfig config;
    config.buffer_servers = 2;
    // desired = ceil(31.5/8) + 2 = 6 == current: steady.
    EXPECT_EQ(evaluate_autoscaler(inputs, config).remove_servers, 0);
    // Demand drops by a server's worth but stays inside the band.
    inputs.committed_gpus = 26;
    // desired = ceil(27.3/8) + 2 = 6: still no release.
    EXPECT_EQ(evaluate_autoscaler(inputs, config).remove_servers, 0);
    // A real drop leaves the band and releases gradually.
    inputs.committed_gpus = 8;
    // desired = ceil(8.4/8) + 2 = 4: excess 2, released in one step.
    const auto decision = evaluate_autoscaler(inputs, config);
    EXPECT_EQ(decision.remove_servers, 2);
}

/** Busy (non-idle) servers are never reclaimed, whatever the excess. */
TEST(AutoScalerTest, NoScaleDownWithoutIdleServers)
{
    AutoScalerInputs inputs;
    inputs.committed_gpus = 0;
    inputs.gpus_per_server = 8;
    inputs.current_servers = 12;
    inputs.total_gpus = 96;
    inputs.idle_servers = 0;
    const auto decision = evaluate_autoscaler(inputs, AutoScalerConfig{});
    EXPECT_EQ(decision.add_servers, 0);
    EXPECT_EQ(decision.remove_servers, 0);
}

/** Releases never overshoot the desired fleet size, across a grid of
 *  (committed, current, idle) states. */
TEST(AutoScalerTest, ScaleDownNeverOvershootsDesired)
{
    AutoScalerConfig config;
    config.buffer_servers = 2;
    config.min_servers = 1;
    for (std::int32_t committed = 0; committed <= 64; committed += 8) {
        for (std::int32_t current = 1; current <= 12; ++current) {
            for (std::int32_t idle = 0; idle <= current; ++idle) {
                AutoScalerInputs inputs;
                inputs.committed_gpus = committed;
                inputs.gpus_per_server = 8;
                inputs.current_servers = current;
                inputs.total_gpus = current * 8;
                inputs.idle_servers = idle;
                const auto decision =
                    evaluate_autoscaler(inputs, config);
                const std::int32_t after =
                    current - decision.remove_servers;
                ASSERT_GE(decision.remove_servers, 0);
                ASSERT_LE(decision.remove_servers, 2);
                ASSERT_GE(after, config.min_servers)
                    << "committed=" << committed << " current=" << current
                    << " idle=" << idle;
                // Removing never drops the fleet below what the policy
                // itself considers desired: a removal followed by an
                // immediate add request would be oscillation.
                if (decision.remove_servers > 0) {
                    const auto recheck = evaluate_autoscaler(
                        AutoScalerInputs{committed, after * 8, 8, after,
                                         idle - decision.remove_servers},
                        config);
                    ASSERT_EQ(recheck.add_servers, 0)
                        << "oscillation: committed=" << committed
                        << " current=" << current << " idle=" << idle;
                }
            }
        }
    }
}

/** Degenerate hardware shape: gpus_per_server <= 0 must be a no-op, not
 *  a divide-by-zero. */
TEST(AutoScalerTest, NonPositiveGpusPerServerIsNoOp)
{
    AutoScalerInputs inputs;
    inputs.committed_gpus = 40;
    inputs.gpus_per_server = 0;
    inputs.current_servers = 5;
    inputs.idle_servers = 5;
    const auto zero = evaluate_autoscaler(inputs, AutoScalerConfig{});
    EXPECT_EQ(zero.add_servers, 0);
    EXPECT_EQ(zero.remove_servers, 0);
    inputs.gpus_per_server = -8;
    const auto negative = evaluate_autoscaler(inputs, AutoScalerConfig{});
    EXPECT_EQ(negative.add_servers, 0);
    EXPECT_EQ(negative.remove_servers, 0);
}

/** Multiplier sweep: larger f provisions at least as many servers. */
class AutoScalerMultiplierProperty
    : public ::testing::TestWithParam<double>
{
};

TEST_P(AutoScalerMultiplierProperty, MonotoneInMultiplier)
{
    AutoScalerInputs inputs;
    inputs.committed_gpus = 40;
    inputs.total_gpus = 48;
    inputs.gpus_per_server = 8;
    inputs.current_servers = 6;
    AutoScalerConfig base;
    base.multiplier = 1.0;
    AutoScalerConfig larger;
    larger.multiplier = GetParam();
    const auto a = evaluate_autoscaler(inputs, base);
    const auto b = evaluate_autoscaler(inputs, larger);
    EXPECT_GE(b.add_servers, a.add_servers);
}

INSTANTIATE_TEST_SUITE_P(Multipliers, AutoScalerMultiplierProperty,
                         ::testing::Values(1.0, 1.05, 1.5, 2.0));

/** Full scheduler harness. */
struct SchedFixture
{
    explicit SchedFixture(SchedulerConfig config = default_config())
        : scheduler(simulation, config, 99)
    {
        scheduler.start();
    }

    static SchedulerConfig
    default_config()
    {
        SchedulerConfig config;
        config.initial_servers = 4;
        // Faster Raft for tests (simulated milliseconds are free).
        config.kernel.raft.election_timeout_min = 150 * sim::kMillisecond;
        config.kernel.raft.election_timeout_max = 300 * sim::kMillisecond;
        config.kernel.raft.heartbeat_interval = 50 * sim::kMillisecond;
        config.kernel.raft.snapshot_threshold = 16;
        return config;
    }

    /** Begin the next session, with a @p gpus-GPU kernel, and run until
     *  the kernel is created. @return the session id. */
    std::int64_t
    open_session(std::int32_t gpus = 2)
    {
        const std::int64_t session = next_session++;
        scheduler.begin_session(session, kernel_request(gpus));
        run_for(120 * sim::kSecond);
        EXPECT_TRUE(scheduler.session_movable(session))
            << "session " << session << "'s kernel was not created";
        return session;
    }

    struct Reply
    {
        kernel::ExecutionResult result;
        RequestTrace trace;
    };

    Reply
    execute(std::int64_t session, const std::string& code,
            bool is_gpu = true, sim::Time wait = 300 * sim::kSecond)
    {
        Reply reply;
        bool done = false;
        EXPECT_TRUE(scheduler.submit_session(
            session, code, is_gpu, simulation.now(),
            [&](const kernel::ExecutionResult& result,
                const RequestTrace& trace) {
                reply.result = result;
                reply.trace = trace;
                done = true;
            }));
        run_for(wait);
        EXPECT_TRUE(done) << "execution did not complete";
        return reply;
    }

    void run_for(sim::Time t) { simulation.run_until(simulation.now() + t); }

    sim::Simulation simulation;
    SchedulerShard scheduler;
    std::int64_t next_session = 1;
};

TEST(GlobalSchedulerTest, StartsInitialFleet)
{
    SchedFixture f;
    EXPECT_EQ(f.scheduler.cluster().size(), 4u);
    EXPECT_EQ(f.scheduler.cluster().total_gpus(), 32);
}

TEST(GlobalSchedulerTest, CreatesKernelWithThreeReplicas)
{
    SchedFixture f;
    const std::int64_t session = f.open_session();
    const cluster::KernelId kernel_id = f.scheduler.kernel_of(session);
    EXPECT_EQ(f.scheduler.stats().kernels_created, 1u);
    // Replicas on three distinct servers, each subscribed.
    std::set<cluster::ServerId> servers;
    int containers = 0;
    for (const auto& [id, server] : f.scheduler.cluster().servers()) {
        for (const auto& [cid, container] : server->containers()) {
            if (container.kernel == kernel_id) {
                servers.insert(id);
                ++containers;
            }
        }
    }
    EXPECT_EQ(servers.size(), 3u);
    EXPECT_EQ(containers, 3);
    EXPECT_EQ(f.scheduler.cluster().total_subscribed_gpus(), 6);
    // A Raft leader exists among the replicas.
    int leaders = 0;
    for (int i = 0; i < 3; ++i) {
        if (f.scheduler.replica(session, i)->raft().role() ==
            raft::Role::kLeader) {
            ++leaders;
        }
    }
    EXPECT_EQ(leaders, 1);
}

TEST(GlobalSchedulerTest, ExecutesCellAndReturnsOutput)
{
    SchedFixture f;
    const std::int64_t session = f.open_session();
    const auto reply =
        f.execute(session, "x = 21 * 2\nprint(x)\ngpu_compute(5)");
    EXPECT_EQ(reply.result.status, kernel::ExecutionStatus::kOk);
    EXPECT_EQ(reply.result.output, "42\n");
    EXPECT_GT(reply.trace.client_replied, reply.trace.submitted_at);
}

TEST(GlobalSchedulerTest, TraceTimestampsMonotone)
{
    SchedFixture f;
    const std::int64_t session = f.open_session();
    const auto reply = f.execute(session, "gpu_compute(10)");
    const RequestTrace& t = reply.trace;
    EXPECT_LE(t.submitted_at, t.gs_received);
    EXPECT_LE(t.gs_received, t.gs_dispatched);
    EXPECT_LE(t.gs_dispatched, t.ls_received);
    EXPECT_LE(t.ls_received, t.replica_received);
    EXPECT_LE(t.replica_received, t.execution_started);
    EXPECT_LE(t.execution_started, t.execution_finished);
    EXPECT_LE(t.execution_finished, t.replica_replied);
    EXPECT_LE(t.replica_replied, t.client_replied);
}

TEST(GlobalSchedulerTest, GpusCommittedOnlyDuringExecution)
{
    SchedFixture f;
    const std::int64_t session = f.open_session(4);
    EXPECT_EQ(f.scheduler.cluster().total_committed_gpus(), 0);
    bool done = false;
    f.scheduler.submit_session(
        session, "gpu_compute(60)", true, f.simulation.now(),
        [&](const kernel::ExecutionResult&, const RequestTrace&) {
            done = true;
        });
    f.run_for(30 * sim::kSecond);  // mid-execution
    EXPECT_EQ(f.scheduler.cluster().total_committed_gpus(), 4);
    f.run_for(120 * sim::kSecond);
    EXPECT_TRUE(done);
    // Dynamic binding: GPUs released after the cell completes (§3.3).
    EXPECT_EQ(f.scheduler.cluster().total_committed_gpus(), 0);
}

TEST(GlobalSchedulerTest, DeviceIdsBoundDuringExecutionOnly)
{
    SchedFixture f;
    const std::int64_t session = f.open_session(4);
    bool done = false;
    f.scheduler.submit_session(
        session, "gpu_compute(60)", true, f.simulation.now(),
        [&](const kernel::ExecutionResult&, const RequestTrace&) {
            done = true;
        });
    f.run_for(30 * sim::kSecond);  // mid-execution
    // Exactly one replica holds device ids, and exactly 4 of them (§3.3).
    int holders = 0;
    std::vector<std::int32_t> devices;
    for (int i = 0; i < 3; ++i) {
        const auto bound = f.scheduler.bound_devices(session, i);
        if (!bound.empty()) {
            ++holders;
            devices = bound;
        }
    }
    EXPECT_EQ(holders, 1);
    EXPECT_EQ(devices.size(), 4u);
    f.run_for(120 * sim::kSecond);
    EXPECT_TRUE(done);
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(f.scheduler.bound_devices(session, i).empty());
    }
}

TEST(GlobalSchedulerTest, YieldConversionPreSelectsExecutor)
{
    SchedFixture f;
    const std::int64_t session = f.open_session();
    f.execute(session, "gpu_compute(1)");
    EXPECT_GE(f.scheduler.stats().yield_conversions, 1u);
    EXPECT_GE(f.scheduler.stats().immediate_commits, 1u);
}

TEST(GlobalSchedulerTest, ConsecutiveCellsReuseExecutor)
{
    SchedFixture f;
    const std::int64_t session = f.open_session();
    f.execute(session, "a = 1\ngpu_compute(1)");
    const auto second = f.execute(session, "b = 2\ngpu_compute(1)");
    EXPECT_TRUE(second.result.executor_reused);
    EXPECT_GE(f.scheduler.stats().executor_reuses, 1u);
}

TEST(GlobalSchedulerTest, StateVisibleAcrossCells)
{
    SchedFixture f;
    const std::int64_t session = f.open_session();
    f.execute(session, "counter = 1\ngpu_compute(1)");
    const auto reply =
        f.execute(session, "counter = counter + 1\nprint(counter)\n"
                           "gpu_compute(1)");
    EXPECT_EQ(reply.result.output, "2\n");
}

TEST(GlobalSchedulerTest, SyncLatenciesRecorded)
{
    SchedFixture f;
    const std::int64_t session = f.open_session();
    f.execute(session, "x = 1\ngpu_compute(1)");
    EXPECT_GE(f.scheduler.sync_latencies_ms().count(), 1u);
    EXPECT_GT(f.scheduler.sync_latencies_ms().mean(), 0.0);
}

TEST(GlobalSchedulerTest, CpuCellsSkipGpuCommit)
{
    SchedFixture f;
    const std::int64_t session = f.open_session();
    const auto reply =
        f.execute(session, "y = 3\ncpu_compute(5)", /*is_gpu=*/false);
    EXPECT_EQ(reply.result.status, kernel::ExecutionStatus::kOk);
    EXPECT_EQ(f.scheduler.stats().gpu_executions, 0u);
}

TEST(GlobalSchedulerTest, EndSessionReleasesSubscriptions)
{
    SchedFixture f;
    const std::int64_t session = f.open_session();
    EXPECT_GT(f.scheduler.cluster().total_subscribed_gpus(), 0);
    f.scheduler.end_session(session);
    EXPECT_EQ(f.scheduler.cluster().total_subscribed_gpus(), 0);
    EXPECT_EQ(f.scheduler.session_count(), 0u);
    EXPECT_FALSE(f.scheduler.session_movable(session));
}

TEST(GlobalSchedulerTest, ScaleOutWhenPlacementFails)
{
    SchedulerConfig config = SchedFixture::default_config();
    config.initial_servers = 2;  // fewer servers than replicas
    SchedFixture f(config);
    f.open_session();
    EXPECT_GE(f.scheduler.stats().scale_outs, 1u);
    EXPECT_GE(f.scheduler.cluster().size(), 3u);
}

/** Zero-capacity cold start: a cluster provisioned with no servers at
 *  all must bootstrap itself through failed-placement scale-outs and
 *  still create a working kernel (§3.4.2: failed placement triggers an
 *  immediate scale-out independent of the periodic auto-scaler). */
TEST(GlobalSchedulerTest, ZeroCapacityClusterBootstrapsViaScaleOut)
{
    SchedulerConfig config = SchedFixture::default_config();
    config.initial_servers = 0;
    SchedFixture f(config);
    EXPECT_EQ(f.scheduler.cluster().size(), 0u);
    EXPECT_EQ(f.scheduler.cluster().total_gpus(), 0);

    const std::int64_t session = 1;
    f.scheduler.begin_session(session, kernel_request(2));
    f.run_for(600 * sim::kSecond);
    ASSERT_TRUE(f.scheduler.session_movable(session))
        << "kernel never became ready from a cold cluster";
    // One scale-out per missing replica server, at least.
    EXPECT_GE(f.scheduler.stats().scale_outs, 3u);
    EXPECT_GE(f.scheduler.cluster().size(), 3u);
    // The bootstrapped kernel executes end to end.
    const auto reply = f.execute(session, "x = 40 + 2\nprint(x)\n"
                                          "gpu_compute(2)");
    EXPECT_EQ(reply.result.status, kernel::ExecutionStatus::kOk);
    EXPECT_EQ(reply.result.output, "42\n");
}

/** Single-server edge: replicas must land on distinct servers, so a
 *  1-server fleet scales out by the two missing servers and never
 *  co-locates replicas of one kernel. */
TEST(GlobalSchedulerTest, SingleServerClusterSpreadsReplicasAfterScaleOut)
{
    SchedulerConfig config = SchedFixture::default_config();
    config.initial_servers = 1;
    SchedFixture f(config);
    f.scheduler.begin_session(1, kernel_request(2));
    f.run_for(600 * sim::kSecond);
    ASSERT_TRUE(f.scheduler.session_movable(1));
    const cluster::KernelId kernel_id = f.scheduler.kernel_of(1);
    EXPECT_GE(f.scheduler.stats().scale_outs, 2u);
    EXPECT_GE(f.scheduler.cluster().size(), 3u);
    // Each replica container sits on its own server.
    std::set<cluster::ServerId> servers;
    int containers = 0;
    for (const auto& [id, server] : f.scheduler.cluster().servers()) {
        for (const auto& [cid, container] : server->containers()) {
            if (container.kernel == kernel_id) {
                servers.insert(id);
                ++containers;
            }
        }
    }
    EXPECT_EQ(containers, 3);
    EXPECT_EQ(servers.size(), 3u);
}

/** A zero-capacity cluster cannot place the kernel until the scale-outs
 *  its failed placement triggered (§3.4.2) bring servers up: the kernel
 *  must wait (no crash, no phantom creation) with the shard unsettled,
 *  and once provisioning completes it is created. */
TEST(GlobalSchedulerTest, ZeroCapacityKernelStaysPendingUntilCapacity)
{
    SchedulerConfig config = SchedFixture::default_config();
    config.initial_servers = 0;
    config.server_provision_min = 200 * sim::kSecond;
    config.server_provision_max = 200 * sim::kSecond;
    SchedFixture f(config);
    f.scheduler.begin_session(1, kernel_request(1));
    // Well before the 200 s provisioning completes: still waiting.
    f.run_for(100 * sim::kSecond);
    EXPECT_EQ(f.scheduler.stats().kernels_created, 0u);
    EXPECT_FALSE(f.scheduler.session_movable(1));
    EXPECT_FALSE(f.scheduler.settled());
    // Once the servers register, the waiting kernel is placed.
    f.run_for(600 * sim::kSecond);
    EXPECT_EQ(f.scheduler.stats().kernels_created, 1u);
    EXPECT_TRUE(f.scheduler.session_movable(1));
}

TEST(GlobalSchedulerTest, FailedElectionTriggersMigration)
{
    SchedulerConfig config = SchedFixture::default_config();
    config.initial_servers = 4;
    config.yield_conversion = false;  // force the Raft election path
    SchedFixture f(config);
    const std::int64_t session = f.open_session(8);
    const cluster::KernelId kernel_id = f.scheduler.kernel_of(session);

    // Saturate the three replica servers so every replica must yield.
    std::set<cluster::ServerId> replica_servers;
    for (const auto& [id, server] : f.scheduler.cluster().servers()) {
        for (const auto& [cid, container] : server->containers()) {
            if (container.kernel == kernel_id) {
                replica_servers.insert(id);
            }
        }
    }
    ASSERT_EQ(replica_servers.size(), 3u);
    for (const cluster::ServerId id : replica_servers) {
        ASSERT_TRUE(f.scheduler.cluster().find(id)->commit(
            kernel_request(8)));
    }
    const auto reply =
        f.execute(session, "gpu_compute(5)", true, 900 * sim::kSecond);
    EXPECT_EQ(reply.result.status, kernel::ExecutionStatus::kOk);
    EXPECT_TRUE(reply.trace.migrated);
    EXPECT_GE(f.scheduler.stats().elections_failed, 1u);
    EXPECT_GE(f.scheduler.stats().migrations, 1u);
    // The fourth (free) server executed it.
    for (const cluster::ServerId id : replica_servers) {
        f.scheduler.cluster().find(id)->release(kernel_request(8));
    }
}

TEST(GlobalSchedulerTest, MigrationAbortsWithoutViableServer)
{
    SchedulerConfig config = SchedFixture::default_config();
    config.initial_servers = 3;  // exactly the replica servers
    config.yield_conversion = false;
    config.enable_autoscaler = false;  // nothing will add capacity
    config.scale_out_on_failed_placement = false;
    config.migration_retry = 5 * sim::kSecond;
    config.migration_max_retries = 2;
    SchedFixture f(config);
    const std::int64_t session = f.open_session(8);
    for (const auto& [id, server] : f.scheduler.cluster().servers()) {
        server->commit(kernel_request(8));
    }
    const auto reply =
        f.execute(session, "gpu_compute(5)", true, 900 * sim::kSecond);
    EXPECT_EQ(reply.result.status, kernel::ExecutionStatus::kError);
    EXPECT_TRUE(reply.trace.aborted);
    EXPECT_GE(f.scheduler.stats().migrations_aborted, 1u);
}

/** A kernel stopped while a migration is in flight releases exactly what
 *  it holds: the victim's server was already released, and the target
 *  holds a placeholder container with no subscription. */
TEST(GlobalSchedulerTest, StopMidMigrationReleasesWhatTheKernelHolds)
{
    SchedulerConfig config = SchedFixture::default_config();
    config.initial_servers = 4;
    config.yield_conversion = false;
    // A cold start for the target's container keeps the migration in
    // flight for 8-25 s after the victim's release.
    config.prewarm_per_server = 0;
    // Nothing may remove a server the checks below read.
    config.enable_autoscaler = false;
    SchedFixture f(config);
    const std::int64_t session = f.open_session(8);
    cluster::Cluster& cluster = f.scheduler.cluster();
    std::size_t replica_servers = 0;
    for (const auto& [id, server] : cluster.servers()) {
        if (!server->containers().empty()) {
            ++replica_servers;
            ASSERT_TRUE(server->commit(kernel_request(8)));
        }
    }
    ASSERT_EQ(replica_servers, 3u);
    f.scheduler.submit_session(
        session, "gpu_compute(5)", true, f.simulation.now(),
        [](const kernel::ExecutionResult&, const RequestTrace&) {});
    // Step until the migration releases the victim's server.
    for (int step = 0; step < 3000 && cluster.total_subscribed_gpus() == 24;
         ++step) {
        f.run_for(100 * sim::kMillisecond);
    }
    ASSERT_EQ(cluster.total_subscribed_gpus(), 16);
    ASSERT_EQ(f.scheduler.stats().migrations, 1u);

    f.scheduler.end_session(session);
    f.run_for(60 * sim::kSecond);
    for (const auto& [id, server] : cluster.servers()) {
        EXPECT_EQ(server->subscribed_gpus(), 0) << "server " << id;
        EXPECT_TRUE(server->containers().empty()) << "server " << id;
    }
}

TEST(GlobalSchedulerTest, ReplicaFailureIsRepaired)
{
    SchedFixture f;
    const std::int64_t session = f.open_session();
    f.execute(session, "x = 7\ngpu_compute(1)");
    f.scheduler.inject_replica_failure(session, 0);
    f.run_for(300 * sim::kSecond);  // health check + replacement
    EXPECT_GE(f.scheduler.stats().replica_failovers, 1u);
    kernel::KernelReplica* replacement = f.scheduler.replica(session, 0);
    ASSERT_NE(replacement, nullptr);
    EXPECT_TRUE(replacement->running());
    // The kernel still executes with synchronized state.
    const auto reply =
        f.execute(session, "x = x + 1\nprint(x)\ngpu_compute(1)");
    EXPECT_EQ(reply.result.status, kernel::ExecutionStatus::kOk);
    EXPECT_EQ(reply.result.output, "8\n");
}

/** A repair is the kernel's one move in flight: with no pre-warmed
 *  container, the replacement's 8-25 s cold start outlasts the next 10 s
 *  health check, which must leave the slot under repair alone rather than
 *  start a second repair of it. */
TEST(GlobalSchedulerTest, SlowReplicaFailureIsRepairedOnce)
{
    SchedulerConfig config = SchedFixture::default_config();
    config.prewarm_per_server = 0;
    // Nothing may remove a server the checks below read.
    config.enable_autoscaler = false;
    SchedFixture f(config);
    const std::int64_t session = f.open_session(2);
    const cluster::KernelId kernel_id = f.scheduler.kernel_of(session);
    f.execute(session, "x = 7\ngpu_compute(1)");
    f.scheduler.inject_replica_failure(session, 0);
    f.run_for(300 * sim::kSecond);
    EXPECT_EQ(f.scheduler.stats().replica_failovers, 1u);

    // The group's config holds the three replicas, and no more.
    const raft::RaftNode* lead = nullptr;
    for (int i = 0; i < 3; ++i) {
        kernel::KernelReplica* replica = f.scheduler.replica(session, i);
        ASSERT_NE(replica, nullptr);
        EXPECT_TRUE(replica->running()) << "replica " << i;
        if (replica->raft().role() == raft::Role::kLeader) {
            lead = &replica->raft();
        }
    }
    ASSERT_NE(lead, nullptr);
    EXPECT_EQ(lead->members().size(), 3u);

    // Each server subscribes exactly the GPUs of the kernel's containers
    // it holds, and the kernel holds one container per replica.
    int containers = 0;
    for (const auto& [id, server] : f.scheduler.cluster().servers()) {
        int held = 0;
        for (const auto& [cid, container] : server->containers()) {
            held += container.kernel == kernel_id ? 1 : 0;
        }
        containers += held;
        EXPECT_EQ(server->subscribed_gpus(), 2 * held) << "server " << id;
    }
    EXPECT_EQ(containers, 3);
    EXPECT_EQ(f.scheduler.cluster().total_subscribed_gpus(), 6);

    const auto reply =
        f.execute(session, "x = x + 1\nprint(x)\ngpu_compute(1)");
    EXPECT_EQ(reply.result.status, kernel::ExecutionStatus::kOk);
    EXPECT_EQ(reply.result.output, "8\n");
}

/** A migration with no surviving replica: a one-replica kernel whose
 *  server is full moves its only replica, which founds the group anew
 *  and reruns the cell. */
TEST(GlobalSchedulerTest, SingleReplicaMigrationRerunsItsCell)
{
    SchedulerConfig config = SchedFixture::default_config();
    config.initial_servers = 2;
    config.kernel.replica_count = 1;
    config.yield_conversion = false;  // force the Raft election path
    SchedFixture f(config);
    const std::int64_t session = f.open_session(8);
    cluster::GpuServer* home = nullptr;
    for (const auto& [id, server] : f.scheduler.cluster().servers()) {
        if (!server->containers().empty()) {
            home = server;
        }
    }
    ASSERT_NE(home, nullptr);
    ASSERT_TRUE(home->commit(kernel_request(8)));
    const auto reply = f.execute(session, "x = 5\nprint(x)\ngpu_compute(5)",
                                 true, 900 * sim::kSecond);
    EXPECT_EQ(reply.result.status, kernel::ExecutionStatus::kOk);
    EXPECT_EQ(reply.result.output, "5\n");
    EXPECT_TRUE(reply.trace.migrated);
    EXPECT_EQ(f.scheduler.stats().migrations, 1u);
}

TEST(GlobalSchedulerTest, AutoscalerAddsServersUnderLoad)
{
    SchedulerConfig config = SchedFixture::default_config();
    config.initial_servers = 3;
    config.autoscale_interval = 10 * sim::kSecond;
    config.autoscaler.buffer_servers = 1;
    SchedFixture f(config);
    const std::int64_t session = f.open_session(8);
    bool done = false;
    f.scheduler.submit_session(
        session, "gpu_compute(600)", true, f.simulation.now(),
        [&](const kernel::ExecutionResult&, const RequestTrace&) {
            done = true;
        });
    f.run_for(300 * sim::kSecond);
    // 8 committed GPUs -> desired = ceil(8.4/8)+1 = 3 servers; commit more
    // kernels to push it over.
    const std::int64_t second = f.open_session(8);
    bool done2 = false;
    f.scheduler.submit_session(
        second, "gpu_compute(600)", true, f.simulation.now(),
        [&](const kernel::ExecutionResult&, const RequestTrace&) {
            done2 = true;
        });
    f.run_for(900 * sim::kSecond);
    EXPECT_TRUE(done);
    EXPECT_TRUE(done2);
    EXPECT_GE(f.scheduler.cluster().size(), 3u);
}

TEST(GlobalSchedulerTest, PrewarmPoolRefilled)
{
    SchedulerConfig config = SchedFixture::default_config();
    config.prewarm_per_server = 2;
    config.prewarm_check_interval = 5 * sim::kSecond;
    SchedFixture f(config);
    f.run_for(120 * sim::kSecond);
    // Every server eventually holds its target of warm containers. The
    // pool state is observable through the scheduler's cluster.
    // (Indirect check: a migration later hits the warm pool.)
    EXPECT_EQ(f.scheduler.stats().prewarm_hits, 0u);
}

TEST(GlobalSchedulerTest, UnknownSessionRefused)
{
    SchedFixture f;
    EXPECT_FALSE(f.scheduler.submit_session(
        999, "x = 1", true, f.simulation.now(),
        [](const kernel::ExecutionResult&, const RequestTrace&) {
            FAIL() << "callback for a refused cell";
        }));
    f.run_for(sim::kSecond);
    EXPECT_EQ(f.scheduler.kernel_of(999), cluster::kNoKernel);
    EXPECT_TRUE(f.scheduler.settled());
}

TEST(GlobalSchedulerTest, EventsRecorded)
{
    SchedFixture f;
    f.open_session();
    bool created = false;
    for (const SchedulerEvent& event : f.scheduler.events()) {
        if (event.kind == SchedulerEvent::Kind::kKernelCreated) {
            created = true;
        }
    }
    EXPECT_TRUE(created);
}

/** settled() is the prototype drain's stop rule. It must stay false while
 *  any cell can still get an outcome (buffered behind its kernel's
 *  creation, pending, or replied to but with the reply still on its way
 *  to the client) and turn true once none can: after the reply, after
 *  end_session drops a pending cell, and once the kernel of a session that
 *  ended during its creation has been created and stopped. */
TEST(GlobalSchedulerTest, SettledOnlyWhenNoCellIsOwedAnOutcome)
{
    SchedFixture f;
    EXPECT_TRUE(f.scheduler.settled());
    const auto never = [](const kernel::ExecutionResult&,
                          const RequestTrace&) {
        FAIL() << "callback for a cell that gets no outcome";
    };

    f.scheduler.begin_session(1, kernel_request(1));
    EXPECT_FALSE(f.scheduler.settled());
    bool replied = false;
    ASSERT_TRUE(f.scheduler.submit_session(
        1, "gpu_compute(5)", true, f.simulation.now(),
        [&replied](const kernel::ExecutionResult& result,
                   const RequestTrace&) {
            EXPECT_EQ(result.status, kernel::ExecutionStatus::kOk);
            replied = true;
        }));
    // Event by event: unsettled until the callback has run, the stretch
    // where on_result has counted the cell but the reply is in flight
    // included.
    bool reply_in_flight = false;
    while (!replied) {
        ASSERT_FALSE(f.scheduler.settled()) << "at " << f.simulation.now();
        ASSERT_LT(f.simulation.now(), 300 * sim::kSecond);
        ASSERT_TRUE(f.simulation.step());
        reply_in_flight = reply_in_flight ||
                          (!replied &&
                           f.scheduler.stats().executions_completed == 1);
    }
    EXPECT_TRUE(reply_in_flight);
    EXPECT_TRUE(f.scheduler.settled());

    // end_session drops a pending cell: it is owed nothing.
    ASSERT_TRUE(f.scheduler.submit_session(1, "gpu_compute(60)", true,
                                           f.simulation.now(), never));
    f.run_for(10 * sim::kSecond);
    EXPECT_FALSE(f.scheduler.settled());
    f.scheduler.end_session(1);
    EXPECT_TRUE(f.scheduler.settled());
    f.run_for(120 * sim::kSecond);
    EXPECT_TRUE(f.scheduler.settled());

    // A session that ends while its kernel is being created drops its
    // buffered cell, and its kernel is stopped once created.
    f.scheduler.begin_session(2, kernel_request(1));
    ASSERT_TRUE(f.scheduler.submit_session(2, "gpu_compute(5)", true,
                                           f.simulation.now(), never));
    while (f.scheduler.replica(2, 0) == nullptr) {
        ASSERT_FALSE(f.scheduler.settled());
        ASSERT_TRUE(f.simulation.step());
    }
    f.scheduler.end_session(2);
    EXPECT_FALSE(f.scheduler.settled());
    EXPECT_FALSE(f.scheduler.submit_session(2, "gpu_compute(5)", true,
                                            f.simulation.now(), never));
    f.run_for(sim::kMinute);
    EXPECT_TRUE(f.scheduler.settled());
    EXPECT_EQ(f.scheduler.stats().kernels_created, 2u);
    for (const auto& [id, server] : f.scheduler.cluster().servers()) {
        EXPECT_EQ(server->subscribed_gpus(), 0) << "server " << id;
        EXPECT_TRUE(server->containers().empty()) << "server " << id;
    }
}

/** The route is a pure function of (session id, shard count): identical
 *  across router instances, repeated calls, and — because it never touches
 *  an RNG — across runs and seeds. */
TEST(ShardRouterTest, StableAcrossInstancesAndRepeatedCalls)
{
    const ShardRouter a(4);
    const ShardRouter b(4);
    for (std::int64_t id = 0; id <= 5000; id += 13) {
        const std::size_t shard = a.shard_of(id);
        ASSERT_LT(shard, 4u) << "id=" << id;
        ASSERT_EQ(shard, a.shard_of(id)) << "id=" << id;
        ASSERT_EQ(shard, b.shard_of(id)) << "id=" << id;
    }
}

/** Negative ids used to sign-cast silently into the hash; they are caller
 *  bugs (e.g. routing a -1 sentinel) and must be rejected loudly — on
 *  every shard count, including the shards == 1 fast path. */
TEST(ShardRouterTest, RejectsNegativeSessionIds)
{
    EXPECT_THROW(ShardRouter(4).shard_of(-1), std::invalid_argument);
    EXPECT_THROW(ShardRouter(4).shard_of(-500), std::invalid_argument);
    EXPECT_THROW(ShardRouter(1).shard_of(-1), std::invalid_argument);
    EXPECT_NO_THROW(ShardRouter(4).shard_of(0));
}

TEST(ShardRouterTest, SingleShardRoutesEverythingToZero)
{
    const ShardRouter router(1);
    for (std::int64_t id = 0; id < 100; ++id) {
        EXPECT_EQ(router.shard_of(id), 0u);
    }
    // Degenerate counts used to clamp to one shard, hiding config bugs
    // behind a quietly monolithic run; now they are rejected loudly.
    EXPECT_THROW(ShardRouter(0), std::invalid_argument);
    EXPECT_THROW(ShardRouter(-3), std::invalid_argument);
}

/** splitmix64 spreads consecutive ids: no shard should be starved or
 *  hot-spotted on a dense session-id range. */
TEST(ShardRouterTest, SpreadsDenseIdsRoughlyEvenly)
{
    const ShardRouter router(8);
    std::vector<int> counts(8, 0);
    for (std::int64_t id = 1; id <= 4000; ++id) {
        ++counts[router.shard_of(id)];
    }
    for (std::size_t shard = 0; shard < counts.size(); ++shard) {
        // Expected 500 per shard; +/-30% is far looser than splitmix64
        // delivers but catches any systematic skew.
        EXPECT_GT(counts[shard], 350) << "shard " << shard;
        EXPECT_LT(counts[shard], 650) << "shard " << shard;
    }
}

/** Two plain shards built the way the prototype engine's driver builds
 *  its shards (sched::shard_seed, ShardIdentity{i, 2}), each on its own
 *  simulation. They are swept serially to each stop because the test
 *  callbacks write shared test state; parallel-window bit-identity is
 *  determinism_test's job. */
struct ShardPair
{
    explicit ShardPair(const SchedulerConfig& config)
        : first(simulations[0], config, shard_seed(99, 0),
                ShardIdentity{0, 2}),
          second(simulations[1], config, shard_seed(99, 1),
                 ShardIdentity{1, 2})
    {
        first.start();
        second.start();
    }

    SchedulerShard& shard(std::size_t i) { return i == 0 ? first : second; }

    void
    run_until(sim::Time t)
    {
        simulations[0].run_until(t);
        simulations[1].run_until(t);
        now = t;
    }

    /** Both shards' counters, summed in shard order. */
    SchedulerStats
    totals() const
    {
        SchedulerStats summed = first.stats();
        summed += second.stats();
        return summed;
    }

    sim::Simulation simulations[2];
    SchedulerShard first;
    SchedulerShard second;
    sim::Time now = 0;
};

/** Multi-shard topology on plain shards: the fleet splits round-robin
 *  (9 servers: 5 + 4), a session's kernel lands on its hash shard, kernel
 *  ids come from disjoint per-shard strides, and each shard counts only
 *  its own work. */
TEST(ShardedSchedulerTest, RoutesSessionsAndMergesAcrossShards)
{
    SchedulerConfig config = SchedFixture::default_config();
    config.initial_servers = 9;
    ShardPair pair(config);
    EXPECT_EQ(pair.shard(0).cluster().size(), 5u);
    EXPECT_EQ(pair.shard(1).cluster().size(), 4u);

    // Sessions alternating between the two hash shards.
    const ShardRouter router(2);
    std::vector<std::int64_t> sessions;
    for (std::int64_t id = 1; sessions.size() < 4; ++id) {
        if (router.shard_of(id) == sessions.size() % 2) {
            sessions.push_back(id);
        }
    }
    for (const std::int64_t session : sessions) {
        pair.shard(router.shard_of(session))
            .begin_session(session, kernel_request(2));
    }
    pair.run_until(240 * sim::kSecond);
    // Shard 0 allocates 1, 3, ... and shard 1 allocates 2, 4, ...
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        SchedulerShard& owner = pair.shard(router.shard_of(sessions[i]));
        EXPECT_TRUE(owner.session_movable(sessions[i]));
        EXPECT_EQ(owner.kernel_of(sessions[i]),
                  static_cast<cluster::KernelId>(i + 1));
    }
    EXPECT_EQ(pair.shard(0).session_count(), 2u);
    EXPECT_EQ(pair.shard(1).session_count(), 2u);

    int completed = 0;
    for (const std::int64_t session : sessions) {
        pair.shard(router.shard_of(session))
            .submit_session(session, "gpu_compute(2)", true, pair.now,
                            [&completed](const kernel::ExecutionResult& r,
                                         const RequestTrace&) {
                                EXPECT_EQ(r.status,
                                          kernel::ExecutionStatus::kOk);
                                ++completed;
                            });
    }
    pair.run_until(pair.now + 300 * sim::kSecond);
    EXPECT_EQ(completed, 4);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(pair.shard(i).stats().kernels_created, 2u) << "shard " << i;
        EXPECT_EQ(pair.shard(i).stats().executions_completed, 2u)
            << "shard " << i;
    }
    EXPECT_EQ(pair.totals().executions_completed, 4u);

    // The shard-order event merge is time-sorted and loses nothing.
    const auto events =
        merge_events({pair.shard(0).events(), pair.shard(1).events()});
    EXPECT_EQ(events.size(),
              pair.shard(0).events().size() + pair.shard(1).events().size());
    for (std::size_t i = 1; i < events.size(); ++i) {
        EXPECT_LE(events[i - 1].time, events[i].time);
    }
    // Ending a session touches only its own shard.
    pair.shard(0).end_session(sessions[0]);
    EXPECT_EQ(pair.shard(0).session_count(), 1u);
    EXPECT_EQ(pair.shard(1).session_count(), 2u);
}

/** `static_hash` and `rebalance` admission through the router must be the
 *  ShardRouter hash, bit for bit, at every shard count — this is the
 *  equivalence that keeps every pre-routing golden (and all 21 bench
 *  hashes) unchanged. */
TEST(SessionRouterTest, StaticHashMatchesShardRouterAtEveryShardCount)
{
    for (const RoutingPolicyKind kind :
         {RoutingPolicyKind::kStaticHash, RoutingPolicyKind::kRebalance}) {
        for (const std::int32_t shards : {1, 2, 3, 4, 8, 16}) {
            SessionRouter router(kind, shards);
            const ShardRouter hash(shards);
            for (std::int64_t id = 0; id <= 4000; id += 7) {
                ASSERT_EQ(router.admit(id, id % 5), hash.shard_of(id))
                    << to_string(kind) << " shards=" << shards
                    << " id=" << id;
                ASSERT_EQ(router.shard_of(id), hash.shard_of(id))
                    << to_string(kind) << " shards=" << shards
                    << " id=" << id;
            }
            EXPECT_EQ(router.table().overrides(), 0u);
        }
    }
}

TEST(RoutingTableTest, RejectsDegenerateShardCounts)
{
    EXPECT_THROW(RoutingTable(0), std::invalid_argument);
    EXPECT_THROW(RoutingTable(-2), std::invalid_argument);
    EXPECT_NO_THROW(RoutingTable(1));
}

TEST(RoutingTableTest, AssignOverridesHashAndForgetRestoresIt)
{
    RoutingTable table(4);
    const std::int64_t session = 17;
    const auto home = table.router().shard_of(session);
    const auto away =
        static_cast<std::int32_t>((home + 1) % 4);

    table.assign(session, away);
    EXPECT_EQ(table.shard_of(session), static_cast<std::size_t>(away));
    EXPECT_EQ(table.overrides(), 1u);

    // Re-assigning the hash route is not a deviation: the map stays
    // bounded by the number of sessions actually routed away.
    table.assign(session, static_cast<std::int32_t>(home));
    EXPECT_EQ(table.shard_of(session), home);
    EXPECT_EQ(table.overrides(), 0u);

    table.assign(session, away);
    table.forget(session);
    EXPECT_EQ(table.shard_of(session), home);
    EXPECT_EQ(table.overrides(), 0u);

    EXPECT_THROW(table.assign(session, 4), std::out_of_range);
    EXPECT_THROW(table.assign(session, -1), std::out_of_range);
}

TEST(SessionRouterTest, NamesRoundTrip)
{
    for (const RoutingPolicyKind kind :
         {RoutingPolicyKind::kStaticHash, RoutingPolicyKind::kLeastLoaded,
          RoutingPolicyKind::kRebalance}) {
        EXPECT_EQ(routing_policy_from_string(to_string(kind)), kind);
        EXPECT_EQ(SessionRouter(kind, 2).rebalancing(),
                  kind == RoutingPolicyKind::kRebalance);
    }
    EXPECT_THROW(routing_policy_from_string("round_robin"),
                 std::invalid_argument);
    EXPECT_THROW(routing_policy_from_string(""), std::invalid_argument);
    EXPECT_THROW(SessionRouter(RoutingPolicyKind::kLeastLoaded, 0),
                 std::invalid_argument);
}

/** least_loaded admits to the shard with the least cumulative admitted
 *  weight; a weight tie goes to the shard with fewer sessions admitted,
 *  a full tie to the lowest index. Forgetting a session drops its route
 *  but not its weight. */
TEST(SessionRouterTest, LeastLoadedTieRulesOnCumulativeWeight)
{
    SessionRouter router(RoutingPolicyKind::kLeastLoaded, 2);
    // A session weighs its cells + 1. Comments: why the pick, then
    // weight/admitted per shard after it.
    EXPECT_EQ(router.admit(1, 0), 0u);  // full tie, lowest index: 1/1 0/0
    EXPECT_EQ(router.admit(2, 2), 1u);  // least weight:           1/1 3/1
    EXPECT_EQ(router.admit(3, 0), 0u);  // least weight:           2/2 3/1
    EXPECT_EQ(router.admit(4, 0), 0u);  // least weight:           3/3 3/1
    EXPECT_EQ(router.admit(5, 1), 1u);  // weight tie, fewer adm.: 3/3 5/2
    EXPECT_EQ(router.admit(6, 1), 0u);  // least weight:           5/4 5/2
    EXPECT_EQ(router.admit(7, 0), 1u);  // weight tie, fewer adm.: 5/4 6/3

    // Every session routed off its hash shard is an override until the
    // driver forgets it; forgetting leaves the cumulative weights alone.
    EXPECT_GT(router.table().overrides(), 0u);
    for (std::int64_t id = 1; id <= 7; ++id) {
        router.forget(id);
        EXPECT_EQ(router.shard_of(id), router.table().router().shard_of(id));
    }
    EXPECT_EQ(router.table().overrides(), 0u);
    EXPECT_EQ(router.admit(8, 0), 0u);  // least weight:           6/5 6/3
    EXPECT_EQ(router.admit(9, 0), 1u);  // weight tie, fewer adm.: 6/5 7/4
}

TEST(PlanRebalanceTest, EmptyWhenMonolithicOrBalanced)
{
    EXPECT_TRUE(plan_rebalance({}, {}).empty());
    EXPECT_TRUE(plan_rebalance({ShardLoad{}}, {{}}).empty());

    std::vector<ShardLoad> loads(2);
    loads[0].weight = 6;
    loads[1].weight = 6;
    std::vector<std::vector<SessionLoad>> sessions(2);
    sessions[0].push_back(SessionLoad{1, 6, true});
    sessions[1].push_back(SessionLoad{2, 6, true});
    EXPECT_TRUE(plan_rebalance(loads, sessions).empty());
}

/** The planner drains the heaviest shard toward the lightest, choosing
 *  the largest session that does not overshoot the midpoint, and stops
 *  once no move can narrow the gap further. */
TEST(PlanRebalanceTest, MovesLargestFittingSessionFromHeaviestShard)
{
    std::vector<ShardLoad> loads(2);
    loads[0].weight = 10;
    loads[1].weight = 0;
    std::vector<std::vector<SessionLoad>> sessions(2);
    sessions[0].push_back(SessionLoad{100, 6, true});
    sessions[0].push_back(SessionLoad{200, 4, true});

    const auto plan = plan_rebalance(loads, sessions);
    // Moving the 6 would overshoot (6*2 > 10); the 4 lands the shards at
    // 6/4, inside the slack band — exactly one move.
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].session, 200);
    EXPECT_EQ(plan[0].from, 0);
    EXPECT_EQ(plan[0].to, 1);
}

TEST(PlanRebalanceTest, SkipsPinnedSessions)
{
    std::vector<ShardLoad> loads(2);
    loads[0].weight = 10;
    loads[1].weight = 0;
    std::vector<std::vector<SessionLoad>> sessions(2);
    sessions[0].push_back(SessionLoad{100, 6, true});
    sessions[0].push_back(SessionLoad{200, 4, false});  // mid-operation

    const auto plan = plan_rebalance(loads, sessions);
    for (const MigrationDecision& move : plan) {
        EXPECT_NE(move.session, 200);
    }
    // With the 4 pinned, the 6 is the only donor candidate.
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].session, 100);
}

/** The plan is a pure function of the shard-order-merged inputs — the
 *  property that makes parallel and serial windows produce identical
 *  migration histories. */
TEST(PlanRebalanceTest, PureFunctionOfInputs)
{
    std::vector<ShardLoad> loads(4);
    loads[0].weight = 20;
    loads[1].weight = 3;
    loads[2].weight = 9;
    loads[3].weight = 1;
    std::vector<std::vector<SessionLoad>> sessions(4);
    sessions[0] = {SessionLoad{7, 8, true}, SessionLoad{9, 8, true},
                   SessionLoad{11, 4, true}};
    sessions[1] = {SessionLoad{2, 3, true}};
    sessions[2] = {SessionLoad{5, 9, false}};
    sessions[3] = {SessionLoad{3, 1, true}};

    const auto a = plan_rebalance(loads, sessions);
    const auto b = plan_rebalance(loads, sessions);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].session, b[i].session);
        EXPECT_EQ(a[i].from, b[i].from);
        EXPECT_EQ(a[i].to, b[i].to);
    }
    EXPECT_FALSE(a.empty());
}

/** Two plain shards driven the way the prototype engine's driver drives
 *  them: a `rebalance` SessionRouter admits sessions and moves them at
 *  window boundaries, and cells go to the owning shard's session API. */
struct RoutedShards
{
    RoutedShards() : sched(make_config())
    {
        // Two sessions that hash to the same shard: a guaranteed
        // imbalance for the planner to fix.
        for (std::int64_t id = 1; sessions.size() < 2; ++id) {
            if (router.table().router().shard_of(id) == 0) {
                sessions.push_back(id);
            }
        }
        for (const std::int64_t session : sessions) {
            EXPECT_EQ(router.admit(session, 1), 0u);
            sched.shard(0).begin_session(session, kernel_request(2));
        }
        sched.run_until(240 * sim::kSecond);
    }

    static SchedulerConfig
    make_config()
    {
        SchedulerConfig config = SchedFixture::default_config();
        config.initial_servers = 8;
        return config;
    }

    /** Submit a cell to @p session's current owner. */
    bool
    submit(std::int64_t session, const std::string& code,
           SchedulerShard::ExecuteCallback callback)
    {
        return sched.shard(router.shard_of(session))
            .submit_session(session, code, true, sched.now,
                            std::move(callback));
    }

    std::size_t
    rebalance()
    {
        return router.rebalance([this](std::size_t i) -> SchedulerShard& {
            return sched.shard(i);
        });
    }

    /** The session the last rebalance moved off shard 0. */
    std::int64_t
    moved() const
    {
        return router.shard_of(sessions[0]) == 1 ? sessions[0] : sessions[1];
    }

    ShardPair sched;
    SessionRouter router{RoutingPolicyKind::kRebalance, 2};
    std::vector<std::int64_t> sessions;
};

/** Window-boundary migration end to end on the real scheduler shards: a
 *  whole session (kernel, checkpointed state, pending work) moves to the
 *  other shard, its interpreter state survives the move, every submitted
 *  cell completes exactly once, and the router tracks the new owner until
 *  the session is forgotten. */
TEST(ShardedSchedulerTest, RebalanceMigratesSessionKeepingState)
{
    RoutedShards f;
    EXPECT_EQ(f.sched.shard(0).session_count(), 2u);
    EXPECT_EQ(f.sched.shard(1).session_count(), 0u);

    // One completed cell per session gives each a window weight of 1.
    std::map<std::int64_t, int> completions;
    for (const std::int64_t session : f.sessions) {
        ASSERT_TRUE(f.submit(
            session, "counter = 1\ngpu_compute(1)",
            [&completions, session](const kernel::ExecutionResult& r,
                                    const RequestTrace&) {
                EXPECT_EQ(r.status, kernel::ExecutionStatus::kOk);
                ++completions[session];
            }));
    }
    f.sched.run_until(f.sched.now + 300 * sim::kSecond);

    // Close the window: 2/0 splits to 1/1 by moving exactly one session.
    EXPECT_EQ(f.rebalance(), 1u);
    EXPECT_EQ(f.router.sessions_rebalanced(), 1u);
    EXPECT_EQ(f.sched.shard(0).session_count(), 1u);
    EXPECT_EQ(f.sched.shard(1).session_count(), 1u);
    EXPECT_EQ(f.router.table().overrides(), 1u);
    const std::int64_t moved = f.moved();
    EXPECT_EQ(f.router.shard_of(moved), 1u);
    f.sched.run_until(f.sched.now + 300 * sim::kSecond);

    // State survives the move: the migrated kernel still sees `counter`.
    bool checked = false;
    ASSERT_TRUE(f.submit(
        moved, "counter = counter + 1\nprint(counter)\ngpu_compute(1)",
        [&checked](const kernel::ExecutionResult& r, const RequestTrace&) {
            EXPECT_EQ(r.status, kernel::ExecutionStatus::kOk);
            EXPECT_EQ(r.output, "2\n");
            checked = true;
        }));
    f.sched.run_until(f.sched.now + 300 * sim::kSecond);
    EXPECT_TRUE(checked);

    // No lost or duplicated cells across the migration.
    for (const std::int64_t session : f.sessions) {
        EXPECT_EQ(completions[session], 1) << "session " << session;
    }

    // Ending the migrated session and forgetting it drops its override.
    f.sched.shard(1).end_session(moved);
    f.sched.run_until(f.sched.now + 60 * sim::kSecond);
    f.router.forget(moved);
    EXPECT_EQ(f.router.table().overrides(), 0u);
    EXPECT_EQ(f.sched.shard(1).session_count(), 0u);

    // Merged totals stay policy-invariant: 2 kernels, 3 completions.
    EXPECT_EQ(f.sched.totals().kernels_created, 2u);
    EXPECT_EQ(f.sched.totals().executions_completed, 3u);
}

/** A cell submitted while the session is mid-migration (extracted but
 *  work buffered) is carried with the session and still completes —
 *  the shard buffers instead of dropping. */
TEST(ShardedSchedulerTest, BufferedWorkTravelsWithMigratedSession)
{
    RoutedShards f;
    std::map<std::int64_t, int> completions;
    for (const std::int64_t session : f.sessions) {
        ASSERT_TRUE(f.submit(
            session, "x = 7\ngpu_compute(1)",
            [&completions, session](const kernel::ExecutionResult& r,
                                    const RequestTrace&) {
                EXPECT_EQ(r.status, kernel::ExecutionStatus::kOk);
                ++completions[session];
            }));
    }
    f.sched.run_until(f.sched.now + 300 * sim::kSecond);
    ASSERT_EQ(f.rebalance(), 1u);
    const std::int64_t moved = f.moved();

    // Submit to the moved session *before* advancing time: the adopted
    // kernel is still re-electing on its new shard, so the cell lands in
    // the session buffer and drains when the kernel comes up.
    ASSERT_TRUE(f.submit(
        moved, "x = x + 1\nprint(x)\ngpu_compute(1)",
        [&completions, moved](const kernel::ExecutionResult& r,
                              const RequestTrace&) {
            EXPECT_EQ(r.status, kernel::ExecutionStatus::kOk);
            EXPECT_EQ(r.output, "8\n");
            ++completions[moved];
        }));
    f.sched.run_until(f.sched.now + 600 * sim::kSecond);
    EXPECT_EQ(completions[moved], 2);

    // Submitting to an ended session is refused, not silently dropped.
    f.sched.shard(1).end_session(moved);
    f.sched.run_until(f.sched.now + 60 * sim::kSecond);
    EXPECT_FALSE(f.submit(
        moved, "gpu_compute(1)",
        [](const kernel::ExecutionResult&, const RequestTrace&) {
            FAIL() << "callback for a dropped cell";
        }));
}

/** The lockstep fork/join behind every sharded window: parallel workers
 *  are started once and reused for every later step, not respawned per
 *  window, and every step runs on the same thread as before. */
TEST(LockstepTest, ParallelWorkersAreStartedOncePerRun)
{
    constexpr std::size_t kShards = 4;
    constexpr int kWindows = 50;
    sim::Lockstep lockstep(kShards, /*parallel=*/true);
    std::vector<std::set<std::thread::id>> seen(kShards);
    std::vector<int> steps(kShards, 0);
    for (int window = 0; window < kWindows; ++window) {
        lockstep.run([&](std::size_t shard) {
            seen[shard].insert(std::this_thread::get_id());
            ++steps[shard];
        });
    }
    std::set<std::thread::id> threads;
    for (std::size_t shard = 0; shard < kShards; ++shard) {
        EXPECT_EQ(steps[shard], kWindows) << "shard " << shard;
        ASSERT_EQ(seen[shard].size(), 1u) << "shard " << shard;
        threads.insert(*seen[shard].begin());
    }
    // Shard 0 runs on the caller; every other shard has its own worker.
    EXPECT_EQ(seen[0].count(std::this_thread::get_id()), 1u);
    EXPECT_EQ(threads.size(), kShards);
    EXPECT_EQ(lockstep.busy_seconds().size(), kShards);
}

/** A shard's exception reaches the caller in both modes, after every
 *  other shard has finished its step; the lowest throwing shard wins and
 *  the helper stays usable afterwards. */
TEST(LockstepTest, ShardExceptionReachesTheCaller)
{
    for (const bool parallel : {false, true}) {
        SCOPED_TRACE(parallel ? "parallel" : "serial");
        sim::Lockstep lockstep(3, parallel);
        std::vector<int> steps(3, 0);
        try {
            lockstep.run([&](std::size_t shard) {
                ++steps[shard];
                if (shard >= 1) {
                    throw std::runtime_error("shard " +
                                             std::to_string(shard));
                }
            });
            ADD_FAILURE() << "Lockstep::run did not throw";
        } catch (const std::runtime_error& error) {
            EXPECT_STREQ(error.what(), "shard 1");
        }
        EXPECT_EQ(steps, (std::vector<int>{1, 1, 1}));
        lockstep.run([&](std::size_t shard) { ++steps[shard]; });
        EXPECT_EQ(steps, (std::vector<int>{2, 2, 2}));
    }
}

TEST(GlobalSchedulerTest, MultipleKernelsOversubscribe)
{
    SchedulerConfig config = SchedFixture::default_config();
    config.initial_servers = 3;
    config.enable_autoscaler = false;
    SchedFixture f(config);
    // 6 kernels x 4 GPUs x 3 replicas subscribed on 24 GPUs total: SR
    // rises above 1 but placement still succeeds under the dynamic cap.
    std::vector<std::int64_t> sessions;
    for (int i = 0; i < 6; ++i) {
        sessions.push_back(f.open_session(4));
    }
    EXPECT_EQ(f.scheduler.session_count(), 6u);
    EXPECT_GT(f.scheduler.cluster_sr(), 0.9);
    // All kernels still execute (serially).
    for (const std::int64_t session : sessions) {
        const auto reply = f.execute(session, "gpu_compute(2)");
        EXPECT_EQ(reply.result.status, kernel::ExecutionStatus::kOk);
    }
}

}  // namespace
}  // namespace nbos::sched
