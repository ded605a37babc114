/**
 * @file
 * The chaos tier (`ctest -L chaos`): deterministic fault injection with
 * RECORD / REPLAY / SHRINK, and cross-policy invariants under chaos.
 *
 * Covers the plan serialization round trip, seeded generation, the
 * controller's fault semantics against a toy network, Raft's "elects a
 * leader and converges after every heal" under a fuzzed fault schedule,
 * platform-level invariants ("no task lost across a partition", "oracle <=
 * every policy's GPU-hours"), bit-identical same-seed and record/replay
 * runs, and delta-debugging shrink on both synthetic and run-backed
 * failure predicates.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chaos/config.hpp"
#include "chaos/controller.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/generator.hpp"
#include "chaos/shrink.hpp"
#include "harness.hpp"
#include "net/network.hpp"
#include "raft/raft.hpp"
#include "sim/simulation.hpp"

namespace nbos::chaos {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan serialization

FaultPlan
sample_plan()
{
    FaultPlan plan;
    plan.seed = 0xfeedface;
    FaultEvent event;
    event.kind = FaultKind::kDropBurst;
    event.at = 1 * sim::kSecond;
    event.value = 0.375;
    event.duration = 2 * sim::kSecond;
    plan.events.push_back(event);
    event = FaultEvent{};
    event.kind = FaultKind::kPartition;
    event.at = 2 * sim::kSecond;
    event.a = 1;
    event.b = 4;
    event.duration = 5 * sim::kSecond;
    plan.events.push_back(event);
    event.kind = FaultKind::kHeal;
    event.at = 7 * sim::kSecond;
    plan.events.push_back(event);
    event = FaultEvent{};
    event.kind = FaultKind::kCrash;
    event.at = 3 * sim::kSecond;
    event.a = 2;
    event.duration = 4 * sim::kSecond;
    plan.events.push_back(event);
    event.kind = FaultKind::kRestart;
    event.at = 7 * sim::kSecond;
    plan.events.push_back(event);
    event = FaultEvent{};
    event.kind = FaultKind::kClockSkew;
    event.at = 4 * sim::kSecond;
    event.a = 0;
    event.delay = 10 * sim::kMillisecond;
    event.duration = 6 * sim::kSecond;
    plan.events.push_back(event);
    event = FaultEvent{};
    event.kind = FaultKind::kLatencySpike;
    event.at = 5 * sim::kSecond;
    event.delay = 25 * sim::kMillisecond;
    event.duration = 1 * sim::kSecond;
    plan.events.push_back(event);
    return plan;
}

TEST(ChaosPlanTest, SerializeParseRoundTrip)
{
    const FaultPlan plan = sample_plan();
    const std::string text = serialize_plan(plan);
    EXPECT_EQ(parse_plan(text), plan);
    // Serialization is canonical: round-tripping the text is a fixpoint.
    EXPECT_EQ(serialize_plan(parse_plan(text)), text);
}

TEST(ChaosPlanTest, EveryKindHasAStableName)
{
    std::set<std::string> names;
    for (int k = 0; k <= static_cast<int>(FaultKind::kLatencySpike); ++k) {
        names.insert(fault_kind_name(static_cast<FaultKind>(k)));
    }
    EXPECT_EQ(names.size(), 7u);
    EXPECT_EQ(names.count("unknown"), 0u);
}

TEST(ChaosPlanTest, ScheduleFileRoundTripsPerShard)
{
    ScheduleFile schedule;
    schedule.shards[0] = sample_plan();
    schedule.shards[2] = FaultPlan{};
    schedule.shards[2].seed = 99;
    const std::string text = serialize_schedule(schedule);
    EXPECT_EQ(parse_schedule(text), schedule);
}

TEST(ChaosPlanTest, MalformedInputThrows)
{
    EXPECT_THROW(parse_plan(""), std::runtime_error);
    EXPECT_THROW(parse_plan("fault drop_burst 1 0 0 0.5 0 0"),
                 std::runtime_error);
    const std::string header = "# nbos-chaos-schedule v1\n";
    EXPECT_THROW(parse_plan(header + "fault bogus_kind 1 0 0 0.5 0 0\n"),
                 std::runtime_error);
    EXPECT_THROW(parse_plan(header + "fault drop_burst one 0 0 0.5 0 0\n"),
                 std::runtime_error);
    EXPECT_THROW(parse_plan(header + "frobnicate 12\n"), std::runtime_error);
    // A shard section is a schedule-file construct, not a plan construct.
    EXPECT_THROW(parse_plan(header + "shard 0\n"), std::runtime_error);
    EXPECT_NO_THROW(parse_schedule(header + "shard 0\nseed 7\n"));
}

// ---------------------------------------------------------------------------
// ChaosGenerator

TEST(ChaosGeneratorTest, SameSeedSamePlan)
{
    ChaosOptions options;
    options.rates = ChaosRates::uniform(3.0);
    const FaultPlan a = ChaosGenerator(42).generate(options);
    const FaultPlan b = ChaosGenerator(42).generate(options);
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.empty());
    const FaultPlan c = ChaosGenerator(43).generate(options);
    EXPECT_NE(a, c);
}

TEST(ChaosGeneratorTest, ZeroRatesYieldEmptyPlan)
{
    ChaosOptions options;  // all rates default to 0
    EXPECT_TRUE(ChaosGenerator(42).generate(options).empty());
}

TEST(ChaosGeneratorTest, WindowedFaultsAreEmittedAsPairs)
{
    test::check_property(5, [](sim::Rng& rng, std::size_t) {
        ChaosOptions options;
        options.rates.partition = rng.uniform(0.5, 6.0);
        options.rates.crash = rng.uniform(0.5, 6.0);
        const FaultPlan plan =
            ChaosGenerator(rng.next_u64()).generate(options);
        std::size_t cuts = 0, heals = 0, crashes = 0, restarts = 0;
        for (const FaultEvent& event : plan.events) {
            switch (event.kind) {
                case FaultKind::kPartition: ++cuts; break;
                case FaultKind::kHeal: ++heals; break;
                case FaultKind::kCrash: ++crashes; break;
                case FaultKind::kRestart: ++restarts; break;
                default: break;
            }
            if (event.kind == FaultKind::kPartition) {
                EXPECT_NE(event.a, event.b);
            }
        }
        EXPECT_EQ(cuts, heals);
        EXPECT_EQ(crashes, restarts);
        // Sorted by fire time, and inside the fault window.
        for (std::size_t i = 1; i < plan.events.size(); ++i) {
            EXPECT_LE(plan.events[i - 1].at, plan.events[i].at);
        }
        for (const FaultEvent& event : plan.events) {
            EXPECT_GE(event.at, options.start);
        }
    });
}

TEST(ChaosGeneratorTest, RateKnobScalesEventCount)
{
    ChaosOptions low;
    low.rates.drop_burst = 2.0;
    ChaosOptions high = low;
    high.rates.drop_burst = 20.0;
    EXPECT_LT(ChaosGenerator(7).generate(low).size(),
              ChaosGenerator(7).generate(high).size());
}

// ---------------------------------------------------------------------------
// ChaosController semantics against a toy two-node network

struct ToyNet
{
    sim::Simulation simulation;
    net::Network network{simulation, sim::Rng(1)};
    std::vector<std::pair<net::NodeId, sim::Time>> deliveries;
    ChaosController controller{simulation, network};

    ToyNet()
    {
        for (net::NodeId id = 1; id <= 2; ++id) {
            network.register_node_with_id(id, [this, id](const net::Message&) {
                deliveries.push_back({id, simulation.now()});
            });
        }
        ChaosController::Hooks hooks;
        hooks.resolve_endpoint = [](std::uint32_t slot) {
            return static_cast<net::NodeId>(slot % 2 + 1);
        };
        controller.set_hooks(std::move(hooks));
    }

    void send_at(sim::Time t, net::NodeId src, net::NodeId dst)
    {
        simulation.schedule_at(t, [this, src, dst] {
            network.send(src, dst, net::Payload{});
        });
    }
};

TEST(ChaosControllerTest, DropBurstDropsAndExpires)
{
    ToyNet toy;
    FaultPlan plan;
    FaultEvent burst;
    burst.kind = FaultKind::kDropBurst;
    burst.at = 1 * sim::kSecond;
    burst.value = 1.0;  // drop everything during the burst
    burst.duration = 2 * sim::kSecond;
    plan.events.push_back(burst);
    toy.controller.install(plan);

    toy.send_at(1500 * sim::kMillisecond, 1, 2);  // inside the burst
    toy.send_at(4 * sim::kSecond, 1, 2);          // after it expires
    toy.simulation.run_until(10 * sim::kSecond);

    EXPECT_EQ(toy.network.stats().dropped_chaos, 1u);
    EXPECT_EQ(toy.network.stats().dropped, 0u);  // breakdown, not lumping
    ASSERT_EQ(toy.deliveries.size(), 1u);
    EXPECT_EQ(toy.controller.stats().drop_bursts, 1u);
    ASSERT_EQ(toy.controller.record().size(), 1u);
    EXPECT_EQ(toy.controller.record().events[0].at, 1 * sim::kSecond);
}

TEST(ChaosControllerTest, PartitionBlocksUntilHeal)
{
    ToyNet toy;
    FaultPlan plan;
    FaultEvent cut;
    cut.kind = FaultKind::kPartition;
    cut.at = 1 * sim::kSecond;
    cut.a = 0;
    cut.b = 1;
    plan.events.push_back(cut);
    FaultEvent heal = cut;
    heal.kind = FaultKind::kHeal;
    heal.at = 3 * sim::kSecond;
    plan.events.push_back(heal);
    toy.controller.install(plan);

    toy.send_at(2 * sim::kSecond, 2, 1);  // both directions are cut
    toy.send_at(4 * sim::kSecond, 1, 2);  // healed
    toy.simulation.run_until(10 * sim::kSecond);

    EXPECT_EQ(toy.network.stats().blocked_partition, 1u);
    ASSERT_EQ(toy.deliveries.size(), 1u);
    EXPECT_EQ(toy.controller.stats().partitions, 1u);
    EXPECT_EQ(toy.controller.stats().heals, 1u);
    EXPECT_FALSE(toy.network.is_partitioned(1, 2));
}

TEST(ChaosControllerTest, HealWithoutMatchingPartitionIsSkipped)
{
    ToyNet toy;
    FaultPlan plan;
    FaultEvent heal;
    heal.kind = FaultKind::kHeal;
    heal.at = 1 * sim::kSecond;
    heal.a = 0;
    heal.b = 1;
    plan.events.push_back(heal);
    toy.controller.install(plan);
    toy.simulation.run_until(2 * sim::kSecond);
    EXPECT_EQ(toy.controller.stats().heals, 0u);
    EXPECT_EQ(toy.controller.stats().skipped, 1u);
    EXPECT_TRUE(toy.controller.record().empty());
}

TEST(ChaosControllerTest, ClockSkewDelaysMessagesFromSkewedNode)
{
    ToyNet toy;
    FaultPlan plan;
    FaultEvent skew;
    skew.kind = FaultKind::kClockSkew;
    skew.at = 1 * sim::kSecond;
    skew.a = 0;  // resolves to node 1
    skew.delay = 50 * sim::kMillisecond;
    skew.duration = 5 * sim::kSecond;
    plan.events.push_back(skew);
    toy.controller.install(plan);

    toy.send_at(2 * sim::kSecond, 1, 2);   // skewed sender
    toy.send_at(2 * sim::kSecond, 2, 1);   // unskewed sender
    toy.send_at(10 * sim::kSecond, 1, 2);  // skew expired
    toy.simulation.run_until(20 * sim::kSecond);

    ASSERT_EQ(toy.deliveries.size(), 3u);
    std::map<net::NodeId, std::vector<sim::Time>> by_dst;
    for (const auto& [dst, at] : toy.deliveries) {
        by_dst[dst].push_back(at);
    }
    // Node 1's messages carry the extra 50 ms while the skew is active.
    EXPECT_GE(by_dst[2][0], 2 * sim::kSecond + skew.delay);
    EXPECT_LT(by_dst[1][0], 2 * sim::kSecond + skew.delay);
    EXPECT_LT(by_dst[2][1], 10 * sim::kSecond + skew.delay);
    EXPECT_EQ(toy.controller.stats().clock_skews, 1u);
}

TEST(ChaosControllerTest, LatencySpikeDelaysEveryDelivery)
{
    ToyNet toy;
    FaultPlan plan;
    FaultEvent spike;
    spike.kind = FaultKind::kLatencySpike;
    spike.at = 1 * sim::kSecond;
    spike.delay = 100 * sim::kMillisecond;
    spike.duration = 2 * sim::kSecond;
    plan.events.push_back(spike);
    toy.controller.install(plan);

    toy.send_at(2 * sim::kSecond, 2, 1);  // inside the spike
    toy.send_at(5 * sim::kSecond, 2, 1);  // after it expires
    toy.simulation.run_until(10 * sim::kSecond);

    ASSERT_EQ(toy.deliveries.size(), 2u);
    EXPECT_GE(toy.deliveries[0].second, 2 * sim::kSecond + spike.delay);
    EXPECT_LT(toy.deliveries[1].second, 5 * sim::kSecond + spike.delay);
}

// ---------------------------------------------------------------------------
// Raft under chaos: elects a leader and converges after every heal

/** A 3-node Raft group wired to a chaos controller via crash/restart
 *  hooks, with applied-state strings as the convergence witness. */
class RaftChaosCluster
{
  public:
    explicit RaftChaosCluster(std::uint64_t seed)
        : network_(simulation_, sim::Rng(seed)),
          controller_(simulation_, network_)
    {
        const std::vector<net::NodeId> members{1, 2, 3};
        sim::Rng seeder(seed ^ 0xabcdef);
        for (const net::NodeId id : members) {
            auto node = std::make_unique<raft::RaftNode>(
                simulation_, network_, id, members, raft::RaftConfig{},
                sim::Rng(seeder.next_u64()));
            node->set_apply([this, id](const raft::LogEntry& entry) {
                states_[id] += entry.data;
                states_[id] += ";";
            });
            // On restart the node rebuilds the state machine from its
            // snapshot point (the empty initial state when compaction is
            // off) and re-applies committed entries — without the restore
            // hook, re-application would duplicate the applied string.
            node->set_snapshot_hooks(
                [this, id]() { return states_[id]; },
                [this, id](const std::string& snapshot) {
                    states_[id] = snapshot;
                });
            nodes_.emplace(id, std::move(node));
        }
        for (auto& [id, node] : nodes_) {
            node->start();
        }

        ChaosController::Hooks hooks;
        hooks.resolve_endpoint = [this](std::uint32_t slot) {
            const auto up = running_ids();
            if (up.empty()) {
                return net::kNoNode;
            }
            return up[slot % up.size()];
        };
        hooks.crash_replica = [this](std::uint32_t slot) {
            const auto up = running_ids();
            if (up.empty()) {
                return false;
            }
            const net::NodeId victim = up[slot % up.size()];
            downed_[slot] = victim;
            nodes_.at(victim)->stop();
            return true;
        };
        hooks.restart_replica = [this](std::uint32_t slot) {
            const auto it = downed_.find(slot);
            if (it == downed_.end()) {
                return false;
            }
            const net::NodeId victim = it->second;
            downed_.erase(it);
            if (nodes_.at(victim)->running()) {
                return false;
            }
            nodes_.at(victim)->restart();
            return true;
        };
        controller_.set_hooks(std::move(hooks));
    }

    std::vector<net::NodeId> running_ids() const
    {
        std::vector<net::NodeId> up;
        for (const auto& [id, node] : nodes_) {
            if (node->running()) {
                up.push_back(id);
            }
        }
        return up;
    }

    int count_leaders_at_max_term() const
    {
        raft::Term max_term = 0;
        for (const auto& [id, node] : nodes_) {
            if (node->running()) {
                max_term = std::max(max_term, node->term());
            }
        }
        int leaders = 0;
        for (const auto& [id, node] : nodes_) {
            if (node->running() && node->role() == raft::Role::kLeader &&
                node->term() == max_term) {
                ++leaders;
            }
        }
        return leaders;
    }

    raft::RaftNode* leader()
    {
        raft::RaftNode* found = nullptr;
        for (auto& [id, node] : nodes_) {
            if (node->running() && node->role() == raft::Role::kLeader) {
                if (found == nullptr || node->term() > found->term()) {
                    found = node.get();
                }
            }
        }
        return found;
    }

    sim::Simulation& simulation() { return simulation_; }
    ChaosController& controller() { return controller_; }
    const std::string& state(net::NodeId id) const { return states_.at(id); }
    raft::RaftNode& node(net::NodeId id) { return *nodes_.at(id); }

  private:
    sim::Simulation simulation_;
    net::Network network_;
    ChaosController controller_;
    std::map<net::NodeId, std::unique_ptr<raft::RaftNode>> nodes_;
    std::map<net::NodeId, std::string> states_{{1, ""}, {2, ""}, {3, ""}};
    std::map<std::uint32_t, net::NodeId> downed_;
};

TEST(ChaosRaftTest, ElectsLeaderAndConvergesAfterEveryHeal)
{
    test::check_property(4, [](sim::Rng& rng, std::size_t) {
        const std::uint64_t seed = rng.next_u64();
        RaftChaosCluster cluster(seed);

        ChaosOptions options;
        options.start = 3 * sim::kSecond;
        options.horizon = 60 * sim::kSecond;
        options.endpoint_slots = 3;
        options.replica_slots = 3;
        options.rates.partition = 240.0;   // ~4 cut+heal pairs in 60 s
        options.rates.drop_burst = 240.0;  // ~4 bursts
        options.rates.crash = 120.0;       // ~2 crash/restart pairs
        options.rates.clock_skew = 120.0;
        options.rates.latency_spike = 120.0;
        options.drop_probability = 0.3;
        options.drop_duration = 2 * sim::kSecond;
        options.partition_duration = 5 * sim::kSecond;
        options.crash_downtime = 3 * sim::kSecond;
        const FaultPlan plan = ChaosGenerator(seed).generate(options);
        cluster.controller().install(plan);

        // Propose one entry per second while the faults play out.
        for (int i = 0; i < 60; ++i) {
            cluster.simulation().schedule_at(
                (3 + i) * sim::kSecond, [&cluster, i] {
                    if (raft::RaftNode* leader = cluster.leader()) {
                        leader->propose("p" + std::to_string(i));
                    }
                });
        }

        // Run through the fault window plus a settle period: every
        // partition has healed and every crashed node has restarted.
        cluster.simulation().run_until(90 * sim::kSecond);

        EXPECT_EQ(cluster.controller().stats().partitions,
                  cluster.controller().stats().heals);
        EXPECT_EQ(cluster.controller().stats().crashes,
                  cluster.controller().stats().restarts);
        ASSERT_EQ(cluster.running_ids().size(), 3u);
        EXPECT_EQ(cluster.count_leaders_at_max_term(), 1);
        // Applied prefixes agree pairwise (log matching): the shorter
        // state is a prefix of the longer.
        for (const net::NodeId a : {1, 2, 3}) {
            for (const net::NodeId b : {1, 2, 3}) {
                const std::string& sa = cluster.state(a);
                const std::string& sb = cluster.state(b);
                const std::size_t n = std::min(sa.size(), sb.size());
                EXPECT_EQ(sa.substr(0, n), sb.substr(0, n))
                    << "states diverge between " << a << " and " << b;
            }
        }
        // And with the network quiet, commit indexes fully converge.
        const auto commit = cluster.node(1).commit_index();
        EXPECT_GT(commit, 0u);
        EXPECT_EQ(cluster.node(2).commit_index(), commit);
        EXPECT_EQ(cluster.node(3).commit_index(), commit);
    });
}

// ---------------------------------------------------------------------------
// Run-level invariants under chaos

core::PlatformConfig
chaos_platform_config(std::uint64_t seed, double rate_scale = 1.0)
{
    core::PlatformConfig config =
        test::platform_config(core::Policy::kNotebookOS, seed);
    ChaosConfig& chaos = config.scheduler.chaos;
    chaos.enabled = true;
    chaos.options.start = 10 * sim::kMinute;
    chaos.options.horizon = 2 * sim::kHour;
    chaos.options.rates =
        ChaosRates{2.0, 2.0, 1.0, 1.0, 1.0}.scaled(rate_scale);
    return config;
}

TEST(ChaosPlatformTest, NoTaskLostAcrossPartitionsAndCrashes)
{
    const workload::Trace trace = test::tiny_trace();
    test::check_property(3, [&](sim::Rng& rng, std::size_t) {
        core::PlatformConfig config =
            chaos_platform_config(rng.next_u64() % 1000 + 1);
        const core::ExperimentResults results =
            test::run_config(config, trace);
        // Chaos must not lose work: every submitted cell either completed
        // (got its reply) or was explicitly aborted by the scheduler.
        ASSERT_EQ(results.tasks.size(), trace.task_count());
        for (std::size_t i = 0; i < results.tasks.size(); ++i) {
            const core::TaskOutcome& task = results.tasks[i];
            EXPECT_TRUE(task.aborted || task.reply >= task.submit)
                << "task " << i << " was lost (no reply, not aborted)";
        }
    });
}

TEST(ChaosPlatformTest, OracleIsAFloorForEveryPolicyUnderChaos)
{
    const workload::Trace trace = test::tiny_trace();
    const double oracle = core::oracle_gpu_series(trace).integrate_hours(
        0, trace.makespan);
    const core::PlatformConfig base = chaos_platform_config(17);
    const auto results = test::run_concurrent(
        trace,
        {{core::Policy::kReservation, 17, false},
         {core::Policy::kBatch, 17, false},
         {core::Policy::kNotebookOS, 17, false},
         {core::Policy::kNotebookOSLCP, 17, false}},
        base);
    for (const core::ExperimentResults& r : results) {
        EXPECT_GE(r.gpu_hours_provisioned(), oracle * (1.0 - 1e-9))
            << "policy " << static_cast<int>(r.policy)
            << " provisioned fewer GPU-hours than the clairvoyant oracle";
    }
}

TEST(ChaosPlatformTest, ChaosRunsAreObservableInNetworkStats)
{
    const workload::Trace trace = test::tiny_trace();
    core::PlatformConfig config = chaos_platform_config(17, 2.0);
    config.scheduler.chaos.options.drop_probability = 0.5;
    const core::ExperimentResults results =
        test::run_config(config, trace);
    EXPECT_GT(results.net_stats.sent, 0u);
    EXPECT_GT(results.net_stats.dropped_chaos, 0u);

    // And with chaos off, the chaos counter stays zero.
    const core::ExperimentResults quiet =
        test::run_policy(trace, core::Policy::kNotebookOS, 17);
    EXPECT_EQ(quiet.net_stats.dropped_chaos, 0u);
    EXPECT_GT(quiet.net_stats.sent, 0u);
}

TEST(ChaosPlatformTest, SameSeedSamePlanBitIdenticalRun)
{
    const workload::Trace trace = test::tiny_trace();
    test::check_property(2, [&](sim::Rng& rng, std::size_t) {
        const std::uint64_t seed = rng.next_u64() % 1000 + 1;
        core::PlatformConfig config = chaos_platform_config(seed);
        auto sink_a = std::make_shared<RecordSink>();
        auto sink_b = std::make_shared<RecordSink>();
        config.scheduler.chaos.record = sink_a;
        const core::ExperimentResults a = test::run_config(config, trace);
        config.scheduler.chaos.record = sink_b;
        const core::ExperimentResults b = test::run_config(config, trace);
        test::expect_results_identical(a, b);
        EXPECT_EQ(sink_a->serialize(), sink_b->serialize());
        EXPECT_FALSE(sink_a->merged().shards.empty());
    });
}

TEST(ChaosPlatformTest, RecordedScheduleReplaysBitIdentically)
{
    const workload::Trace trace = test::tiny_trace();

    // RECORD: run with generated faults, capturing the injected schedule.
    core::PlatformConfig record_config = chaos_platform_config(17);
    auto sink = std::make_shared<RecordSink>();
    record_config.scheduler.chaos.record = sink;
    const core::ExperimentResults recorded_run =
        test::run_config(record_config, trace);
    const ScheduleFile schedule = sink->merged();
    ASSERT_FALSE(schedule.shards.empty());
    ASSERT_FALSE(schedule.shards.begin()->second.empty());

    // REPLAY: re-execute the serialized schedule (through the text format,
    // so the file round trip is part of the contract), recording again.
    auto replayed_sink = std::make_shared<RecordSink>();
    core::PlatformConfig replay_config = chaos_platform_config(17);
    replay_config.scheduler.chaos.replay =
        std::make_shared<const ScheduleFile>(
            parse_schedule(serialize_schedule(schedule)));
    replay_config.scheduler.chaos.record = replayed_sink;
    const core::ExperimentResults replayed_run =
        test::run_config(replay_config, trace);

    test::expect_results_identical(recorded_run, replayed_run);
    EXPECT_EQ(serialize_schedule(replayed_sink->merged()),
              serialize_schedule(schedule));
}

TEST(ChaosPlatformTest, ShardedRunRecordsEveryShardsFaults)
{
    const workload::Trace trace = test::tiny_trace();
    core::PlatformConfig config = chaos_platform_config(17, 2.0);
    config.scheduler.shards = 2;
    auto sink = std::make_shared<RecordSink>();
    config.scheduler.chaos.record = sink;
    const core::ExperimentResults a = test::run_config(config, trace);
    const ScheduleFile schedule = sink->merged();
    EXPECT_EQ(schedule.shards.size(), 2u);

    // Replaying the per-shard schedule reproduces the run bit-for-bit.
    core::PlatformConfig replay_config = chaos_platform_config(17, 2.0);
    replay_config.scheduler.shards = 2;
    replay_config.scheduler.chaos.replay =
        std::make_shared<const ScheduleFile>(schedule);
    const core::ExperimentResults b =
        test::run_config(replay_config, trace);
    test::expect_results_identical(a, b);
}

/** Window-boundary session migration under injected faults: with the
 *  `rebalance` routing policy and chaos (partitions, crashes, drops)
 *  active, cells still complete or abort exactly once — never lost, even
 *  when their session moved shards mid-run — and the whole run stays
 *  bit-identical for a fixed seed. */
TEST(ChaosPlatformTest, RebalanceUnderFaultsLosesNoTask)
{
    const workload::Trace trace = test::tiny_trace();
    test::check_property(2, [&](sim::Rng& rng, std::size_t) {
        core::PlatformConfig config =
            chaos_platform_config(rng.next_u64() % 1000 + 1);
        config.scheduler.shards = 2;
        config.scheduler.routing = sched::RoutingPolicyKind::kRebalance;
        const core::ExperimentResults a = test::run_config(config, trace);
        for (std::size_t i = 0; i < a.tasks.size(); ++i) {
            const core::TaskOutcome& task = a.tasks[i];
            EXPECT_TRUE(task.aborted || task.reply >= task.submit)
                << "task " << i << " was lost (no reply, not aborted)";
        }
        // One outcome per submitted cell, no duplicates: the routed
        // windowed driver records at most one slot per trace task.
        EXPECT_LE(a.tasks.size(), trace.task_count());
        EXPECT_GT(a.tasks.size(), 0u);

        const core::ExperimentResults b = test::run_config(config, trace);
        test::expect_results_identical(a, b);
    });
}

TEST(ChaosPlatformTest, FastEngineRejectsChaos)
{
    core::PlatformConfig config =
        test::platform_config(core::Policy::kNotebookOS, 17, /*fast=*/true);
    config.scheduler.chaos.enabled = true;
    EXPECT_THROW(test::run_config(config, test::tiny_trace()),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// shrink(): delta-debugging minimization

TEST(ChaosShrinkTest, MinimizesSyntheticPredicateToExactCulprits)
{
    // Failure needs BOTH a crash of replica slot 3 AND any drop burst.
    const auto fails = [](const FaultPlan& plan) {
        bool crash3 = false, burst = false;
        for (const FaultEvent& event : plan.events) {
            crash3 |= event.kind == FaultKind::kCrash && event.a == 3;
            burst |= event.kind == FaultKind::kDropBurst;
        }
        return crash3 && burst;
    };

    ChaosOptions options;
    options.rates = ChaosRates::uniform(4.0);
    options.replica_slots = 4;
    FaultPlan plan;
    for (std::uint64_t seed = 1; plan.events.empty() || !fails(plan);
         ++seed) {
        plan = ChaosGenerator(seed).generate(options);
    }
    ASSERT_GT(plan.size(), 2u);

    std::size_t evaluations = 0;
    const FaultPlan minimal = shrink(plan, fails, &evaluations);
    EXPECT_TRUE(fails(minimal));
    EXPECT_LT(minimal.size(), plan.size());  // strictly smaller
    EXPECT_EQ(minimal.size(), 2u);           // 1-minimal: both culprits only
    EXPECT_GT(evaluations, 0u);
    EXPECT_EQ(minimal.seed, plan.seed);
}

TEST(ChaosShrinkTest, NonFailingPlanIsReturnedUnchanged)
{
    const FaultPlan plan = sample_plan();
    const FaultPlan result =
        shrink(plan, [](const FaultPlan&) { return false; });
    EXPECT_EQ(result, plan);
}

TEST(ChaosShrinkTest, MinimizesRunBackedInvariantToThePartition)
{
    // The run-backed predicate: install the candidate plan into a fresh
    // two-node simulation, send a message at t=5s, and report failure if
    // the "messages are eventually delivered" invariant broke.
    const auto message_lost = [](const FaultPlan& plan) {
        ToyNet toy;
        toy.controller.install(plan);
        toy.send_at(5 * sim::kSecond, 1, 2);
        toy.simulation.run_until(120 * sim::kSecond);
        return toy.deliveries.empty();
    };

    // A seeded schedule whose partitions (heal far in the future) make the
    // invariant fail; drop bursts are generated with probability 0 so the
    // partition is the only possible culprit.
    ChaosOptions options;
    options.start = 1 * sim::kSecond;
    options.horizon = 3 * sim::kSecond;
    options.endpoint_slots = 2;
    const double window_hours = sim::to_hours(options.horizon);
    options.rates.partition = 3.0 / window_hours;
    options.rates.drop_burst = 2.0 / window_hours;
    options.rates.clock_skew = 1.0 / window_hours;
    options.rates.latency_spike = 1.0 / window_hours;
    options.drop_probability = 0.0;
    options.partition_duration = 300 * sim::kSecond;
    const FaultPlan failing = ChaosGenerator(2026).generate(options);
    ASSERT_GT(failing.size(), 4u);
    ASSERT_TRUE(message_lost(failing));

    const FaultPlan minimal = shrink(failing, message_lost);
    EXPECT_TRUE(message_lost(minimal));
    EXPECT_LT(minimal.size(), failing.size());
    ASSERT_EQ(minimal.size(), 1u);
    EXPECT_EQ(minimal.events[0].kind, FaultKind::kPartition);
}

}  // namespace
}  // namespace nbos::chaos
