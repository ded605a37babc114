/**
 * @file
 * Property-based tier (`ctest -L props`): invariants of the metrics
 * accumulators over seeded random inputs — percentile monotonicity and
 * permutation invariance for metrics::Percentiles, fold-order robustness
 * and CI shrinkage for metrics::RunStats. Inputs come from the seeded
 * generators in tests/harness.hpp, so every counterexample is
 * reproducible from the stream index in the failure message.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster.hpp"
#include "harness.hpp"
#include "metrics/percentiles.hpp"
#include "metrics/stats.hpp"
#include "raft/raft.hpp"
#include "sched/placement.hpp"
#include "sched/shard.hpp"
#include "sched/routing.hpp"
#include "workload/profiles.hpp"

namespace nbos {
namespace {

constexpr std::size_t kStreams = 8;

/** abs tolerance scaled to the magnitude of the expected value. */
double
near(double expected)
{
    return 1e-9 * std::max(1.0, std::abs(expected));
}

TEST(PercentilesProperty, PercentileMonotoneInP)
{
    test::check_property(kStreams, [](sim::Rng& rng, std::size_t) {
        metrics::Percentiles dist;
        dist.add_all(test::random_doubles(rng, 257, -50.0, 1e4));
        double previous = dist.percentile(0.0);
        for (double p = 0.0; p <= 100.0; p += 0.5) {
            const double current = dist.percentile(p);
            ASSERT_GE(current, previous) << "p=" << p;
            previous = current;
        }
    });
}

TEST(PercentilesProperty, PercentilesBoundedByMinMax)
{
    test::check_property(kStreams, [](sim::Rng& rng, std::size_t i) {
        metrics::Percentiles dist;
        dist.add_all(test::random_doubles(rng, 64 + i * 37, 0.0, 1e6));
        for (const double p : {0.0, 10.0, 50.0, 90.0, 99.9, 100.0}) {
            const double value = dist.percentile(p);
            ASSERT_GE(value, dist.min()) << "p=" << p;
            ASSERT_LE(value, dist.max()) << "p=" << p;
        }
    });
}

TEST(PercentilesProperty, PermutationInvariant)
{
    test::check_property(kStreams, [](sim::Rng& rng, std::size_t) {
        const auto values = test::random_doubles(rng, 128, -1e3, 1e3);
        metrics::Percentiles original;
        original.add_all(values);
        metrics::Percentiles permuted;
        permuted.add_all(test::shuffled(values, rng));
        // Same multiset of samples -> identical sorted order, so every
        // percentile is bit-identical, not merely close.
        for (double p = 0.0; p <= 100.0; p += 2.5) {
            ASSERT_EQ(original.percentile(p), permuted.percentile(p))
                << "p=" << p;
        }
        ASSERT_EQ(original.mean(), permuted.mean());
    });
}

TEST(PercentilesProperty, CdfMonotoneAndBounded)
{
    test::check_property(kStreams, [](sim::Rng& rng, std::size_t) {
        metrics::Percentiles dist;
        dist.add_all(test::random_doubles(rng, 200, 0.0, 100.0));
        double previous = 0.0;
        for (double v = -10.0; v <= 110.0; v += 1.0) {
            const double fraction = dist.cdf_at(v);
            ASSERT_GE(fraction, previous) << "v=" << v;
            ASSERT_GE(fraction, 0.0);
            ASSERT_LE(fraction, 1.0);
            previous = fraction;
        }
        ASSERT_DOUBLE_EQ(dist.cdf_at(dist.max()), 1.0);
    });
}

TEST(RunStatsProperty, MeanBoundedByMinMax)
{
    test::check_property(kStreams, [](sim::Rng& rng, std::size_t i) {
        metrics::RunStats stats;
        for (const double v :
             test::random_doubles(rng, 3 + i * 11, -1e4, 1e4)) {
            stats.add(v);
        }
        ASSERT_GE(stats.mean(), stats.min());
        ASSERT_LE(stats.mean(), stats.max());
        ASSERT_GE(stats.stddev(), 0.0);
        ASSERT_GE(stats.ci95_half_width(), 0.0);
        // The sample stddev never exceeds the full range.
        ASSERT_LE(stats.stddev(), stats.max() - stats.min() + 1e-12);
    });
}

TEST(RunStatsProperty, FoldPermutationInvariant)
{
    test::check_property(kStreams, [](sim::Rng& rng, std::size_t) {
        const auto values = test::random_doubles(rng, 96, -1e3, 1e3);
        metrics::RunStats ordered;
        for (const double v : values) {
            ordered.add(v);
        }
        metrics::RunStats permuted;
        for (const double v : test::shuffled(values, rng)) {
            permuted.add(v);
        }
        // Welford accumulation commutes up to floating-point rounding:
        // min/max/count exactly, the moments to relative 1e-9. (Exact
        // bit-identity is only guaranteed for a fixed fold order, which
        // is why SeedSweep folds in seed order.)
        ASSERT_EQ(ordered.count(), permuted.count());
        ASSERT_EQ(ordered.min(), permuted.min());
        ASSERT_EQ(ordered.max(), permuted.max());
        ASSERT_NEAR(ordered.mean(), permuted.mean(), near(ordered.mean()));
        ASSERT_NEAR(ordered.stddev(), permuted.stddev(),
                    near(ordered.stddev()));
        ASSERT_NEAR(ordered.ci95_half_width(),
                    permuted.ci95_half_width(),
                    near(ordered.ci95_half_width()));
    });
}

TEST(RunStatsProperty, MergePermutationInvariant)
{
    test::check_property(kStreams, [](sim::Rng& rng, std::size_t) {
        const auto values = test::random_doubles(rng, 90, 0.0, 1e3);
        metrics::RunStats chunks[3];
        for (std::size_t i = 0; i < values.size(); ++i) {
            chunks[i % 3].add(values[i]);
        }
        metrics::RunStats forward;
        forward.merge(chunks[0]);
        forward.merge(chunks[1]);
        forward.merge(chunks[2]);
        metrics::RunStats backward;
        backward.merge(chunks[2]);
        backward.merge(chunks[1]);
        backward.merge(chunks[0]);
        ASSERT_EQ(forward.count(), backward.count());
        ASSERT_EQ(forward.min(), backward.min());
        ASSERT_EQ(forward.max(), backward.max());
        ASSERT_NEAR(forward.mean(), backward.mean(), near(forward.mean()));
        ASSERT_NEAR(forward.variance(), backward.variance(),
                    near(forward.variance()));
    });
}

/** The §headline property of the sweep subsystem: the 95 % confidence
 *  interval tightens as seeds are added. Each quadrupling of N shrinks
 *  the half-width by ~2x (s/sqrt(N)); sample-stddev noise cannot undo a
 *  4x step, so the assertion holds deterministically per stream. */
TEST(RunStatsProperty, CiShrinksAsNGrows)
{
    test::check_property(kStreams, [](sim::Rng& rng, std::size_t) {
        const auto values = test::random_doubles(rng, 512, 0.0, 100.0);
        metrics::RunStats stats;
        std::size_t consumed = 0;
        double previous_ci = 0.0;
        for (const std::size_t n : {8u, 32u, 128u, 512u}) {
            while (consumed < n) {
                stats.add(values[consumed++]);
            }
            const double ci = stats.ci95_half_width();
            ASSERT_GT(ci, 0.0) << "n=" << n;
            if (previous_ci > 0.0) {
                ASSERT_LT(ci, previous_ci) << "n=" << n;
            }
            previous_ci = ci;
        }
    });
}

/**
 * The fleet split both shard types start from: for every total and shard
 * count, ShardIdentity::share_of hands out shares that sum to the total
 * and differ by at most one, with the remainder going to the lowest
 * indices (shard i gets total / count, plus one while i < total % count).
 */
TEST(ShardIdentityProperty, SharesSumToTotalAndDifferByAtMostOne)
{
    for (std::int32_t count = 1; count <= 8; ++count) {
        for (std::int32_t total = 0; total <= 64; ++total) {
            SCOPED_TRACE("count=" + std::to_string(count) +
                         " total=" + std::to_string(total));
            const std::int32_t largest =
                sched::ShardIdentity{0, count}.share_of(total);
            std::int32_t sum = 0;
            std::int32_t previous = largest;
            for (std::int32_t index = 0; index < count; ++index) {
                const sched::ShardIdentity identity{index, count};
                const std::int32_t share = identity.share_of(total);
                ASSERT_EQ(share, total / count +
                                     (index < total % count ? 1 : 0));
                // Non-increasing in the index, and within one of the
                // first (largest) share.
                ASSERT_LE(share, previous);
                ASSERT_GE(share, largest - 1);
                previous = share;
                sum += share;
            }
            ASSERT_EQ(sum, total);
        }
    }
}

/**
 * Sharding invariant, on both NotebookOS engines: on a well-provisioned
 * fleet (autoscaler off, every shard slice can host and commit every
 * kernel routed to it, a session's cells spaced so they never overlap),
 * the merged totals — SchedulerStats, task counts, aborts — are
 * independent of the shard count. Partitioning the session space must
 * not create or destroy work; any coupling bug between shards (shared
 * RNG, id collisions, cross-shard routing) breaks the equality. Per-shard
 * RNG streams differ, so latency *values* legitimately move with the
 * shard count; anything count-shaped must not.
 */
TEST(ShardsProperty, TotalsIndependentOfShardCount)
{
    test::check_property(3, [](sim::Rng& rng, std::size_t) {
        workload::Trace trace;
        trace.name = "props-shards";
        trace.makespan = 2 * sim::kHour;
        const auto session_count =
            static_cast<std::size_t>(5 + rng.uniform_int(0, 6));
        for (std::size_t i = 0; i < session_count; ++i) {
            workload::SessionSpec session;
            session.id =
                static_cast<std::int64_t>(100 + rng.uniform_int(0, 5000)) +
                static_cast<std::int64_t>(i) * 10000;
            session.start_time =
                100 * sim::kSecond + rng.uniform_int(0, 60) * sim::kSecond;
            session.end_time = trace.makespan;  // survives the trace
            const auto gpus =
                static_cast<std::int32_t>(rng.uniform_int(1, 2));
            session.resources = cluster::ResourceSpec{
                4000 * gpus, 16384LL * gpus, gpus, 16.0 * gpus};
            const std::int64_t cells = 1 + rng.uniform_int(0, 3);
            sim::Time at = session.start_time + 30 * sim::kSecond;
            for (std::int64_t c = 0; c < cells; ++c) {
                workload::CellTask task;
                task.session = session.id;
                task.seq = static_cast<std::int32_t>(c);
                task.submit_time = at;
                const std::int64_t seconds = rng.uniform_int(2, 6);
                task.duration = seconds * sim::kSecond;
                task.is_gpu = rng.uniform_int(0, 3) != 0;
                // The prototype engine executes this for real.
                task.code =
                    (task.is_gpu ? "gpu_compute(" : "cpu_compute(") +
                    std::to_string(seconds) + ")";
                session.tasks.push_back(std::move(task));
                // Next cell well after this one's end: sampled overheads
                // are millisecond-scale, so executions never overlap.
                at += 90 * sim::kSecond +
                      rng.uniform_int(0, 20) * sim::kSecond;
            }
            trace.sessions.push_back(std::move(session));
        }

        for (const bool fast : {false, true}) {
            SCOPED_TRACE(fast ? "fast" : "prototype");
            sched::SchedulerStats reference{};
            std::size_t reference_tasks = 0;
            std::size_t reference_aborted = 0;
            bool have_reference = false;
            for (const std::int32_t shards : {1, 2, 4}) {
                SCOPED_TRACE("shards=" + std::to_string(shards));
                core::PlatformConfig config = test::platform_config(
                    core::Policy::kNotebookOS, /*seed=*/7, fast);
                // Ample, evenly divisible fleet: every shard slice (16/4
                // = 4 servers minimum) hosts and commits its kernels
                // outright, so no scale-outs or migrations couple shards
                // to capacity.
                config.scheduler.initial_servers = 16;
                config.scheduler.enable_autoscaler = false;
                config.scheduler.shards = shards;
                config.scheduler.shard_parallel = false;
                const core::ExperimentResults results =
                    test::run_config(config, trace);

                if (!have_reference) {
                    reference = results.sched_stats;
                    reference_tasks = results.tasks.size();
                    reference_aborted = results.aborted_count();
                    have_reference = true;
                    EXPECT_EQ(reference.kernels_created,
                              static_cast<std::uint64_t>(session_count));
                    EXPECT_EQ(reference_aborted, 0u);
                } else {
                    EXPECT_TRUE(results.sched_stats == reference)
                        << "totals changed with the shard count (kernels="
                        << results.sched_stats.kernels_created << " vs "
                        << reference.kernels_created << ", completed="
                        << results.sched_stats.executions_completed
                        << " vs " << reference.executions_completed
                        << ", yields="
                        << results.sched_stats.yield_conversions << " vs "
                        << reference.yield_conversions << ")";
                    EXPECT_EQ(results.tasks.size(), reference_tasks);
                    EXPECT_EQ(results.aborted_count(), reference_aborted);
                }
            }
        }
    });
}

/**
 * Routing-policy invariance: the routing layer decides WHERE a session
 * runs, never WHAT runs. On an ample fleet the policy-invariant totals
 * — kernels created (each session's kernel is counted exactly once,
 * adoptions never recount) and task outcomes — must match across
 * static_hash, least_loaded, and rebalance, on both engines. Placement-
 * flavoured counters (cold starts, executor reuses, migrations) are
 * legitimately policy-dependent and are deliberately NOT compared.
 */
TEST(RoutingPolicyProperty, InvariantTotalsIndependentOfPolicy)
{
    test::check_property(2, [](sim::Rng& rng, std::size_t) {
        workload::Trace trace;
        trace.name = "props-routing";
        trace.makespan = 2 * sim::kHour;
        const auto session_count =
            static_cast<std::size_t>(5 + rng.uniform_int(0, 4));
        for (std::size_t i = 0; i < session_count; ++i) {
            workload::SessionSpec session;
            session.id =
                static_cast<std::int64_t>(100 + rng.uniform_int(0, 5000)) +
                static_cast<std::int64_t>(i) * 10000;
            session.start_time =
                100 * sim::kSecond + rng.uniform_int(0, 60) * sim::kSecond;
            session.end_time = trace.makespan;  // survives the trace
            session.resources = cluster::ResourceSpec{4000, 16384, 1, 16.0};
            const std::int64_t cells = 1 + rng.uniform_int(0, 3);
            sim::Time at = session.start_time + 30 * sim::kSecond;
            for (std::int64_t c = 0; c < cells; ++c) {
                workload::CellTask task;
                task.session = session.id;
                task.seq = static_cast<std::int32_t>(c);
                task.submit_time = at;
                const std::int64_t seconds = rng.uniform_int(2, 6);
                task.duration = seconds * sim::kSecond;
                task.is_gpu = rng.uniform_int(0, 3) != 0;
                // The prototype engine executes this for real; an empty
                // cell body would error out and abort every task.
                task.code =
                    (task.is_gpu ? "gpu_compute(" : "cpu_compute(") +
                    std::to_string(seconds) + ")";
                session.tasks.push_back(std::move(task));
                at += 90 * sim::kSecond +
                      rng.uniform_int(0, 20) * sim::kSecond;
            }
            trace.sessions.push_back(std::move(session));
        }

        for (const bool fast : {false, true}) {
            SCOPED_TRACE(fast ? "fast" : "prototype");
            std::uint64_t kernels = 0, outcomes = 0;
            std::size_t tasks = 0;
            bool have_reference = false;
            for (const sched::RoutingPolicyKind routing :
                 {sched::RoutingPolicyKind::kStaticHash,
                  sched::RoutingPolicyKind::kLeastLoaded,
                  sched::RoutingPolicyKind::kRebalance}) {
                SCOPED_TRACE(sched::to_string(routing));
                core::PlatformConfig config = test::platform_config(
                    core::Policy::kNotebookOS, /*seed=*/7, fast);
                // Ample, evenly divisible fleet, as in the shard-count
                // property above: capacity never couples the policies.
                config.scheduler.initial_servers = 16;
                config.scheduler.enable_autoscaler = false;
                config.scheduler.shards = 4;
                config.scheduler.shard_parallel = false;
                config.scheduler.routing = routing;
                const core::ExperimentResults results =
                    test::run_config(config, trace);
                const sched::SchedulerStats& stats = results.sched_stats;
                const std::uint64_t completed_or_aborted =
                    stats.executions_completed + stats.executions_aborted;
                if (!have_reference) {
                    kernels = stats.kernels_created;
                    outcomes = completed_or_aborted;
                    tasks = results.tasks.size();
                    have_reference = true;
                    // Every session got its kernel and every cell got an
                    // outcome under the reference policy too.
                    EXPECT_EQ(kernels,
                              static_cast<std::uint64_t>(session_count));
                    EXPECT_EQ(static_cast<std::uint64_t>(tasks), outcomes);
                } else {
                    EXPECT_EQ(stats.kernels_created, kernels);
                    EXPECT_EQ(completed_or_aborted, outcomes);
                    EXPECT_EQ(results.tasks.size(), tasks);
                }
            }
        }
    });
}

/** A kernel request of @p gpus GPUs (4 vCPUs, 16 GB and 16 GB VRAM each). */
cluster::ResourceSpec
gpu_request(std::int32_t gpus)
{
    return cluster::ResourceSpec{4000 * gpus, 16384LL * gpus, gpus,
                                 16.0 * gpus};
}

/**
 * Random session lifecycles on two scheduler shards, driven the way the
 * prototype engine's driver drives them: each step begins a session on
 * its hash shard, submits a GPU or CPU cell to a random session's owner,
 * ends a random session, or moves a random session to the other shard,
 * then runs 0-30 s. Afterwards every session gets 2 h to finish its cells
 * and is ended. A shard takes a cell exactly when its session has not
 * ended; every cell it takes gets at most one reply, and exactly one
 * unless its session ended after the cell was submitted; both shards
 * settle; every server is left with no subscription, commitment or
 * container; and each session's kernel is counted once.
 */
TEST(ShardSessionProperty, RandomLifecyclesSettleAndReleaseEverything)
{
    test::check_property(3, [](sim::Rng& rng, std::size_t) {
        sched::SchedulerConfig config;
        config.initial_servers = 8;
        config.kernel.raft.election_timeout_min = 150 * sim::kMillisecond;
        config.kernel.raft.election_timeout_max = 300 * sim::kMillisecond;
        config.kernel.raft.heartbeat_interval = 50 * sim::kMillisecond;
        config.kernel.raft.snapshot_threshold = 16;
        const std::uint64_t seed = rng.next_u64();
        sim::Simulation simulations[2];
        std::vector<std::unique_ptr<sched::SchedulerShard>> shards;
        for (std::int32_t i = 0; i < 2; ++i) {
            shards.push_back(std::make_unique<sched::SchedulerShard>(
                simulations[i], config, sched::shard_seed(seed, i),
                sched::ShardIdentity{i, 2}));
            shards.back()->start();
        }
        sim::Time now = 0;
        const auto run_until = [&](sim::Time t) {
            simulations[0].run_until(t);
            simulations[1].run_until(t);
            now = t;
        };

        struct Cell
        {
            std::int64_t session = 0;
            int replies = 0;
            bool ended_after_submit = false;
        };
        std::vector<Cell> cells;
        // Sessions 1..N and the shard that owns each.
        std::map<std::int64_t, std::size_t> owner;
        std::set<std::int64_t> ended;
        const auto any_session = [&]() {
            return rng.uniform_int(1, static_cast<std::int64_t>(owner.size()));
        };
        for (int step = 0; step < 40; ++step) {
            const std::int64_t op = owner.empty() ? 0 : rng.uniform_int(0, 3);
            if (op == 0) {
                const std::int64_t session =
                    static_cast<std::int64_t>(owner.size()) + 1;
                owner[session] = sched::hash_shard(session, 2);
                shards[owner[session]]->begin_session(
                    session,
                    gpu_request(static_cast<std::int32_t>(
                        rng.uniform_int(1, 2))));
            } else if (op == 1) {
                const std::int64_t session = any_session();
                const bool gpu = rng.uniform_int(0, 1) == 1;
                const std::string code =
                    (gpu ? "gpu_compute(" : "cpu_compute(") +
                    std::to_string(rng.uniform_int(1, 20)) + ")";
                const std::size_t index = cells.size();
                const bool taken = shards[owner[session]]->submit_session(
                    session, code, gpu, now,
                    [&cells, index](const kernel::ExecutionResult&,
                                    const sched::RequestTrace&) {
                        ++cells[index].replies;
                    });
                ASSERT_EQ(taken, ended.count(session) == 0)
                    << "session " << session;
                if (taken) {
                    cells.push_back(Cell{session});
                }
            } else if (op == 2) {
                const std::int64_t session = any_session();
                shards[owner[session]]->end_session(session);
                if (ended.insert(session).second) {
                    for (Cell& cell : cells) {
                        cell.ended_after_submit |= cell.session == session;
                    }
                }
            } else {
                const std::int64_t session = any_session();
                const std::size_t to = 1 - owner[session];
                sched::SchedulerShard::SessionExtract extract;
                if (shards[owner[session]]->extract_session(session,
                                                            extract)) {
                    shards[to]->adopt_session(std::move(extract));
                    owner[session] = to;
                }
            }
            run_until(now + rng.uniform_int(0, 30) * sim::kSecond);
        }
        run_until(now + 2 * sim::kHour);
        for (const auto& [session, shard] : owner) {
            shards[shard]->end_session(session);
        }
        run_until(now + 30 * sim::kMinute);

        for (std::size_t i = 0; i < cells.size(); ++i) {
            EXPECT_LE(cells[i].replies, 1) << "cell " << i;
            if (!cells[i].ended_after_submit) {
                EXPECT_EQ(cells[i].replies, 1)
                    << "cell " << i << " of session " << cells[i].session;
            }
        }
        std::uint64_t created = 0;
        for (std::size_t i = 0; i < shards.size(); ++i) {
            EXPECT_TRUE(shards[i]->settled()) << "shard " << i;
            EXPECT_EQ(shards[i]->session_count(), 0u) << "shard " << i;
            created += shards[i]->stats().kernels_created;
            for (const auto& [id, server] : shards[i]->cluster().servers()) {
                EXPECT_EQ(server->subscribed_gpus(), 0)
                    << "shard " << i << " server " << id;
                EXPECT_EQ(server->committed_gpus(), 0)
                    << "shard " << i << " server " << id;
                EXPECT_TRUE(server->containers().empty())
                    << "shard " << i << " server " << id;
            }
        }
        EXPECT_EQ(created, owner.size());
    });
}

/**
 * The sort-based least-loaded scan that the indexed walk replaced, as
 * the reference: filter every server, sort the candidates by (over the
 * dynamic limit, committed, subscribed, id) and take the first @p count.
 * The fleet totals are summed over servers() here, not read from the
 * cluster's cached ones.
 */
std::vector<cluster::ServerId>
sorted_scan_pick(const cluster::Cluster& cluster,
                 const cluster::ResourceSpec& spec, std::size_t count,
                 std::int32_t replicas_per_kernel, double sr_watermark)
{
    std::int32_t total_gpus = 0;
    std::int32_t total_subscribed = 0;
    for (const auto& [id, server] : cluster.servers()) {
        total_gpus += server->capacity().gpus;
        total_subscribed += server->subscribed_gpus();
    }
    const double soft_limit = std::max(
        1.0, cluster::subscription_ratio(total_subscribed + spec.gpus,
                                         total_gpus, replicas_per_kernel));
    struct Candidate
    {
        cluster::ServerId id;
        bool over_soft_limit;
        std::int32_t committed;
        std::int32_t subscribed;
    };
    std::vector<Candidate> candidates;
    for (const auto& [id, server] : cluster.servers()) {
        if (!spec.fits_within(server->capacity())) {
            continue;
        }
        const double new_sr =
            static_cast<double>(server->subscribed_gpus() + spec.gpus) /
            (static_cast<double>(server->capacity().gpus) *
             static_cast<double>(replicas_per_kernel));
        if (new_sr > sr_watermark + 1e-9) {
            continue;
        }
        candidates.push_back(Candidate{id, new_sr > soft_limit + 1e-9,
                                       server->committed_gpus(),
                                       server->subscribed_gpus()});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                  if (a.over_soft_limit != b.over_soft_limit) {
                      return !a.over_soft_limit;
                  }
                  if (a.committed != b.committed) {
                      return a.committed < b.committed;
                  }
                  if (a.subscribed != b.subscribed) {
                      return a.subscribed < b.subscribed;
                  }
                  return a.id < b.id;
              });
    std::vector<cluster::ServerId> chosen;
    for (const Candidate& candidate : candidates) {
        if (chosen.size() >= count) {
            break;
        }
        chosen.push_back(candidate.id);
    }
    return chosen;
}

/** The cluster's cached totals and load index against values recomputed
 *  from servers(), and pick() against the sorted scan for every request
 *  shape, replica count, R and watermark. */
void
check_cluster_against_reference(const cluster::Cluster& cluster)
{
    std::int32_t total_gpus = 0;
    std::int32_t total_subscribed = 0;
    std::int32_t total_committed = 0;
    std::vector<std::tuple<std::int32_t, std::int32_t, cluster::ServerId>>
        expected_order;
    for (const auto& [id, server] : cluster.servers()) {
        total_gpus += server->capacity().gpus;
        total_subscribed += server->subscribed_gpus();
        total_committed += server->committed_gpus();
        expected_order.emplace_back(server->committed_gpus(),
                                    server->subscribed_gpus(), id);
    }
    ASSERT_EQ(cluster.total_gpus(), total_gpus);
    ASSERT_EQ(cluster.total_subscribed_gpus(), total_subscribed);
    ASSERT_EQ(cluster.total_committed_gpus(), total_committed);

    std::sort(expected_order.begin(), expected_order.end());
    std::vector<const cluster::GpuServer*> walked;
    cluster.visit_by_load([&walked](const cluster::GpuServer& server) {
        walked.push_back(&server);
        return true;
    });
    std::vector<std::tuple<std::int32_t, std::int32_t, cluster::ServerId>>
        index_order;
    for (const cluster::GpuServer* server : walked) {
        ASSERT_EQ(server, cluster.find(server->id()));
        index_order.emplace_back(server->committed_gpus(),
                                 server->subscribed_gpus(), server->id());
    }
    ASSERT_EQ(index_order, expected_order);

    for (const double watermark : {1.0, 3.0}) {
        sched::LeastLoadedPolicy policy(watermark);
        for (const std::int32_t gpus : {1, 2, 4, 8, 16}) {
            const cluster::ResourceSpec spec = gpu_request(gpus);
            for (const std::int32_t replicas : {1, 3, 5}) {
                for (std::size_t count = 0; count <= 4; ++count) {
                    ASSERT_EQ(policy.pick(cluster, spec, count, replicas),
                              sorted_scan_pick(cluster, spec, count,
                                               replicas, watermark))
                        << "gpus=" << gpus << " count=" << count
                        << " R=" << replicas << " watermark=" << watermark;
                }
            }
        }
    }
}

/** find() against the ids a test knows are live (@p live's keys), with
 *  ids 1..@p issued handed out so far: a live id finds the server
 *  servers() yields for it; a removed id, 0, -1 and the next unissued id
 *  find nothing. */
void
check_find_against_live(
    const cluster::Cluster& cluster,
    const std::map<cluster::ServerId, std::vector<cluster::ResourceSpec>>&
        live,
    cluster::ServerId issued)
{
    std::map<cluster::ServerId, const cluster::GpuServer*> by_id;
    for (const auto& [id, server] : cluster.servers()) {
        by_id.emplace(id, server);
    }
    ASSERT_EQ(by_id.size(), live.size());
    for (cluster::ServerId id = -1; id <= issued + 1; ++id) {
        const cluster::GpuServer* found = cluster.find(id);
        if (live.count(id) == 0) {
            ASSERT_EQ(found, nullptr) << "id " << id;
        } else {
            ASSERT_NE(found, nullptr) << "id " << id;
            ASSERT_EQ(found->id(), id);
            ASSERT_EQ(found, by_id.at(id));
        }
    }
}

/**
 * Placement walks a load index the cluster keeps up to date instead of
 * sorting the fleet. Over random fleets of 0-64 servers (some with a
 * custom shape) and random subscribe / unsubscribe / commit / release /
 * add / remove sequences, after every step: the cached totals equal the
 * recomputed sums, the index walk is the servers in (committed,
 * subscribed, id) order, pick() chooses exactly what the sort-based scan
 * chooses, and find() finds exactly the live servers.
 */
TEST(PlacementProperty, IndexedPickMatchesSortedScan)
{
    const std::array<cluster::ResourceSpec, 4> shapes = {
        cluster::ResourceSpec{8000, 32768, 1, 16.0},
        cluster::ResourceSpec{16000, 65536, 2, 32.0},
        cluster::ResourceSpec{32000, 131072, 4, 64.0},
        cluster::ResourceSpec{128000, 1048576, 16, 256.0},
    };
    test::check_property(kStreams, [&shapes](sim::Rng& rng, std::size_t) {
        cluster::Cluster cluster;
        // Each live server's outstanding subscriptions and commitments,
        // so unsubscribe and release only undo what was done.
        std::map<cluster::ServerId, std::vector<cluster::ResourceSpec>>
            subscribed;
        std::map<cluster::ServerId, std::vector<cluster::ResourceSpec>>
            committed;
        // The last id handed out (ids start at 1).
        cluster::ServerId issued = 0;
        const auto random_request = [&rng] {
            return gpu_request(
                std::int32_t{1} << rng.uniform_int(0, 3));  // 1, 2, 4, 8
        };
        // A new server starts with 0-4 subscriptions, so fleet SRs range
        // from idle to past the dynamic limit and the watermark.
        const auto add = [&] {
            cluster::GpuServer& server =
                rng.uniform_int(0, 3) == 0
                    ? cluster.add_server(shapes[static_cast<std::size_t>(
                          rng.uniform_int(0, shapes.size() - 1))])
                    : cluster.add_server();
            ASSERT_EQ(server.id(), issued + 1);
            issued = server.id();
            std::vector<cluster::ResourceSpec>& specs =
                subscribed[server.id()];
            for (std::int64_t k = rng.uniform_int(0, 4); k > 0; --k) {
                specs.push_back(random_request());
                server.subscribe(specs.back());
            }
            committed[server.id()];
        };
        // Takes one spec, at random, out of @p specs.
        const auto take = [&rng](std::vector<cluster::ResourceSpec>& specs) {
            const auto i = static_cast<std::size_t>(
                rng.uniform_int(0, specs.size() - 1));
            const cluster::ResourceSpec spec = specs[i];
            specs[i] = specs.back();
            specs.pop_back();
            return spec;
        };

        const std::int64_t initial = rng.uniform_int(0, 64);
        for (std::int64_t i = 0; i < initial; ++i) {
            ASSERT_NO_FATAL_FAILURE(add());
        }
        ASSERT_NO_FATAL_FAILURE(check_cluster_against_reference(cluster));
        ASSERT_NO_FATAL_FAILURE(
            check_find_against_live(cluster, subscribed, issued));
        for (int step = 0; step < 120; ++step) {
            SCOPED_TRACE("step " + std::to_string(step));
            const std::int64_t op = rng.uniform_int(0, 5);
            if (op == 4) {
                if (cluster.size() < 64) {
                    ASSERT_NO_FATAL_FAILURE(add());
                }
            } else if (cluster.size() > 0) {
                const cluster::ServerId id =
                    cluster.ids()[static_cast<std::size_t>(
                        rng.uniform_int(0, cluster.size() - 1))];
                cluster::GpuServer& server = *cluster.find(id);
                switch (op) {
                  case 0: {
                    const cluster::ResourceSpec spec = random_request();
                    server.subscribe(spec);
                    subscribed[id].push_back(spec);
                    break;
                  }
                  case 1:
                    if (!subscribed[id].empty()) {
                        server.unsubscribe(take(subscribed[id]));
                    }
                    break;
                  case 2: {
                    const cluster::ResourceSpec spec = random_request();
                    if (server.commit(spec)) {
                        committed[id].push_back(spec);
                    }
                    break;
                  }
                  case 3:
                    if (!committed[id].empty()) {
                        server.release(take(committed[id]));
                    }
                    break;
                  default:
                    ASSERT_TRUE(cluster.remove_server(id));
                    subscribed.erase(id);
                    committed.erase(id);
                    break;
                }
            }
            ASSERT_NO_FATAL_FAILURE(check_cluster_against_reference(cluster));
            ASSERT_NO_FATAL_FAILURE(
                check_find_against_live(cluster, subscribed, issued));
        }
    });
}

/** The std::map-keyed pool cluster::PrewarmPool replaced, as the
 *  reference. */
class MapPrewarmPool
{
  public:
    explicit MapPrewarmPool(std::int32_t target) : target_(target) {}

    void register_server(cluster::ServerId id) { pools_.emplace(id, State{}); }
    void unregister_server(cluster::ServerId id) { pools_.erase(id); }
    std::int32_t available(cluster::ServerId id) const
    {
        const auto it = pools_.find(id);
        return it == pools_.end() ? 0 : it->second.available;
    }
    std::int32_t pending(cluster::ServerId id) const
    {
        const auto it = pools_.find(id);
        return it == pools_.end() ? 0 : it->second.pending;
    }
    bool acquire(cluster::ServerId id)
    {
        const auto it = pools_.find(id);
        if (it == pools_.end() || it->second.available <= 0) {
            ++misses;
            return false;
        }
        --it->second.available;
        ++acquired;
        return true;
    }
    void begin_refill(cluster::ServerId id)
    {
        if (const auto it = pools_.find(id); it != pools_.end()) {
            ++it->second.pending;
        }
    }
    void complete_refill(cluster::ServerId id)
    {
        if (const auto it = pools_.find(id); it != pools_.end()) {
            if (it->second.pending > 0) {
                --it->second.pending;
            }
            ++it->second.available;
        }
    }
    void release(cluster::ServerId id)
    {
        if (const auto it = pools_.find(id); it != pools_.end()) {
            ++it->second.available;
        }
    }
    std::int32_t deficit(cluster::ServerId id) const
    {
        const auto it = pools_.find(id);
        if (it == pools_.end()) {
            return 0;
        }
        return std::max(0, target_ - it->second.available -
                               it->second.pending);
    }

    std::uint64_t acquired = 0;
    std::uint64_t misses = 0;

  private:
    struct State
    {
        std::int32_t available = 0;
        std::int32_t pending = 0;
    };
    std::int32_t target_;
    std::map<cluster::ServerId, State> pools_;
};

/**
 * PrewarmPool keeps per-server state in an id-indexed column. Over random
 * register / unregister / acquire / begin_refill / complete_refill /
 * release sequences — registering ids 0-10, so some are registered
 * twice or again after an unregister, and touching ids -2-13, so some
 * were never registered — it answers exactly as the map-keyed pool it
 * replaced: after every step, available, pending and deficit for every
 * id, acquire's result and both totals.
 */
TEST(PrewarmPoolProperty, MatchesMapModel)
{
    constexpr cluster::ServerId kLowest = -2;
    constexpr cluster::ServerId kHighest = 13;
    test::check_property(kStreams, [](sim::Rng& rng, std::size_t) {
        const auto target = static_cast<std::int32_t>(rng.uniform_int(0, 4));
        cluster::PrewarmPool pool(target);
        MapPrewarmPool model(target);
        for (int step = 0; step < 400; ++step) {
            SCOPED_TRACE("step " + std::to_string(step));
            const std::int64_t op = rng.uniform_int(0, 5);
            const cluster::ServerId id =
                op == 0 ? rng.uniform_int(0, 10)
                        : rng.uniform_int(kLowest, kHighest);
            switch (op) {
              case 0:
                pool.register_server(id);
                model.register_server(id);
                break;
              case 1:
                pool.unregister_server(id);
                model.unregister_server(id);
                break;
              case 2:
                ASSERT_EQ(pool.acquire(id), model.acquire(id)) << "id " << id;
                break;
              case 3:
                pool.begin_refill(id);
                model.begin_refill(id);
                break;
              case 4:
                pool.complete_refill(id);
                model.complete_refill(id);
                break;
              default:
                pool.release(id);
                model.release(id);
                break;
            }
            for (cluster::ServerId probe = kLowest; probe <= kHighest;
                 ++probe) {
                ASSERT_EQ(pool.available(probe), model.available(probe))
                    << "id " << probe;
                ASSERT_EQ(pool.pending(probe), model.pending(probe))
                    << "id " << probe;
                ASSERT_EQ(pool.deficit(probe), model.deficit(probe))
                    << "id " << probe;
            }
            ASSERT_EQ(pool.total_acquired(), model.acquired);
            ASSERT_EQ(pool.total_misses(), model.misses);
        }
    });
}

/**
 * A Raft leader commits the largest index a majority of its members hold
 * if that entry is from the current term (raft::quorum_index). Over
 * random logs, commit points and match vectors, that is what the
 * downward scan it replaced commits: from the last index down to the
 * commit point, stop at the first entry from an older term, and commit
 * the first entry a majority holds.
 */
TEST(RaftCommitProperty, QuorumIndexMatchesDownwardScan)
{
    test::check_property(kStreams, [](sim::Rng& rng, std::size_t) {
        for (int sample = 0; sample < 500; ++sample) {
            // A log of 0-40 entries whose terms never decrease (terms[i]
            // is the term of index i + 1) under a current term at least
            // its last one.
            std::vector<raft::Term> terms;
            raft::Term term = 1;
            for (std::int64_t i = rng.uniform_int(0, 40); i > 0; --i) {
                term += static_cast<raft::Term>(rng.uniform_int(0, 3) == 0);
                terms.push_back(term);
            }
            const raft::Term current =
                term + static_cast<raft::Term>(rng.uniform_int(0, 1));
            const auto last = static_cast<raft::Index>(terms.size());
            const auto commit = static_cast<raft::Index>(
                rng.uniform_int(0, static_cast<std::int64_t>(last)));
            const auto term_at = [&terms](raft::Index index) {
                return index == 0 ? raft::Term{0} : terms[index - 1];
            };
            // 1-7 members. The leader, when it is one (it is not while it
            // removes itself), holds its whole log.
            const auto members =
                static_cast<std::size_t>(rng.uniform_int(1, 7));
            const bool leader_is_member = rng.uniform_int(0, 4) != 0;
            std::vector<raft::Index> match;
            for (std::size_t m = 0; m < members; ++m) {
                match.push_back(
                    m == 0 && leader_is_member
                        ? last
                        : static_cast<raft::Index>(rng.uniform_int(
                              0, static_cast<std::int64_t>(last))));
            }
            const std::size_t majority = members / 2 + 1;

            raft::Index scanned = commit;
            for (raft::Index n = last; n > commit; --n) {
                if (term_at(n) != current) {
                    break;
                }
                const auto holders = static_cast<std::size_t>(
                    std::count_if(match.begin(), match.end(),
                                  [n](raft::Index m) { return m >= n; }));
                if (holders >= majority) {
                    scanned = n;
                    break;
                }
            }
            std::vector<raft::Index> reordered = match;
            const raft::Index quorum =
                std::min(raft::quorum_index(reordered, majority), last);
            const raft::Index committed =
                quorum > commit && term_at(quorum) == current ? quorum
                                                              : commit;
            ASSERT_EQ(committed, scanned)
                << "sample " << sample << " last=" << last
                << " commit=" << commit << " current=" << current
                << " members=" << members;
        }
    });
}

/**
 * Workload-profile family invariants: every registered profile, at every
 * seed, yields a trace sorted by (start_time, id) with unique ids,
 * in-makespan arrivals, and internally consistent sessions (serial task
 * sequence numbers, monotone submit times, positive durations). These are
 * the structural preconditions the streamed engine drivers and the
 * nbos-trace-v1 serializer both rely on.
 */
TEST(WorkloadProfileProperty, EveryProfileStreamSortedAndConsistent)
{
    const workload::ProfileRegistry& registry =
        workload::ProfileRegistry::instance();
    const std::vector<std::string> names = registry.names();
    ASSERT_GE(names.size(), 8u);
    test::check_property(4, [&names, &registry](sim::Rng& rng, std::size_t) {
        const std::uint64_t seed = rng.next_u64();
        workload::GeneratorOptions options;
        options.makespan = 4 * sim::kHour;
        options.max_sessions = 20;
        for (const std::string& name : names) {
            SCOPED_TRACE(name + " seed=" + std::to_string(seed));
            const auto profile = registry.create(name);
            ASSERT_NE(profile, nullptr);
            EXPECT_EQ(profile->name(), name);
            const workload::Trace trace = profile->generate(seed, options);
            ASSERT_FALSE(trace.sessions.empty());
            EXPECT_EQ(trace.makespan, options.makespan);
            std::set<std::int64_t> ids;
            const workload::SessionSpec* previous = nullptr;
            for (const workload::SessionSpec& session : trace.sessions) {
                ASSERT_GE(session.start_time, 0);
                ASSERT_LT(session.start_time, trace.makespan);
                ASSERT_GE(session.end_time, session.start_time);
                ASSERT_TRUE(ids.insert(session.id).second)
                    << "duplicate session id " << session.id;
                if (previous != nullptr) {
                    ASSERT_TRUE(
                        previous->start_time < session.start_time ||
                        (previous->start_time == session.start_time &&
                         previous->id < session.id))
                        << "sessions out of (start_time, id) order at id "
                        << session.id;
                }
                previous = &session;
                sim::Time at = session.start_time;
                std::int32_t seq = 0;
                for (const workload::CellTask& task : session.tasks) {
                    ASSERT_EQ(task.session, session.id);
                    ASSERT_EQ(task.seq, seq++);
                    ASSERT_GE(task.submit_time, at);
                    at = task.submit_time;
                    ASSERT_GT(task.duration, 0);
                    // Streams store no program; the prototype derives it.
                    ASSERT_TRUE(task.code.empty());
                    ASSERT_FALSE(workload::cell_code(session, task).empty());
                }
            }
        }
    });
}

/** The merged multi_tenant stream is exactly the union of its per-tenant
 *  marginals: same ids, same sessions, totals that sum — the property
 *  that makes per-tenant analyses decomposable. */
TEST(WorkloadProfileProperty, MultiTenantTotalsSumOfMarginals)
{
    const auto profile = workload::ProfileRegistry::instance().create(
        workload::kProfileMultiTenant);
    ASSERT_NE(profile, nullptr);
    ASSERT_EQ(profile->tenant_count(), 3u);
    test::check_property(3, [&profile](sim::Rng& rng, std::size_t) {
        const std::uint64_t seed = rng.next_u64();
        workload::GeneratorOptions options;
        options.makespan = 6 * sim::kHour;
        options.max_sessions = 15;
        std::map<std::int64_t, workload::SessionSpec> marginal;
        std::size_t marginal_total = 0;
        for (std::size_t tenant = 0; tenant < profile->tenant_count();
             ++tenant) {
            const auto source = profile->open_tenant(tenant, seed, options);
            workload::SessionSpec session;
            while (source->next(session)) {
                ++marginal_total;
                ASSERT_TRUE(marginal.emplace(session.id, session).second)
                    << "tenant id namespaces overlap at " << session.id;
            }
        }
        const workload::Trace merged = profile->generate(seed, options);
        ASSERT_EQ(merged.sessions.size(), marginal_total);
        for (const workload::SessionSpec& session : merged.sessions) {
            const auto it = marginal.find(session.id);
            ASSERT_NE(it, marginal.end()) << "merged-only id " << session.id;
            const workload::SessionSpec& expected = it->second;
            ASSERT_EQ(session.start_time, expected.start_time);
            ASSERT_EQ(session.end_time, expected.end_time);
            ASSERT_EQ(session.model, expected.model);
            ASSERT_EQ(session.tasks.size(), expected.tasks.size());
            for (std::size_t t = 0; t < session.tasks.size(); ++t) {
                ASSERT_EQ(session.tasks[t].submit_time,
                          expected.tasks[t].submit_time);
                ASSERT_EQ(session.tasks[t].duration,
                          expected.tasks[t].duration);
            }
        }
        EXPECT_THROW(
            profile->open_tenant(profile->tenant_count(), seed, options),
            std::out_of_range);
    });
}

/** Diurnal thinning really shapes the arrival process: hour-of-day
 *  arrival counts track the published modulation curve within sampling
 *  tolerance, and the mid-day peak dominates the midnight trough. */
TEST(WorkloadProfileProperty, DiurnalArrivalsTrackModulationCurve)
{
    const auto profile = workload::ProfileRegistry::instance().create(
        workload::kProfileDiurnal);
    ASSERT_NE(profile, nullptr);
    workload::GeneratorOptions options;
    options.makespan = 48 * sim::kHour;
    options.arrival_rate_scale = 60.0;
    const workload::Trace trace = profile->generate(test::kTestSeed, options);
    ASSERT_GT(trace.sessions.size(), 5000u);

    std::array<double, 24> counts{};
    for (const workload::SessionSpec& session : trace.sessions) {
        counts[static_cast<std::size_t>(
            (session.start_time / sim::kHour) % 24)] += 1.0;
    }
    std::array<double, 24> modulation{};
    double modulation_total = 0.0;
    for (int hour = 0; hour < 24; ++hour) {
        modulation[static_cast<std::size_t>(hour)] =
            workload::diurnal_modulation(hour * sim::kHour +
                                         30 * sim::kMinute);
        modulation_total += modulation[static_cast<std::size_t>(hour)];
    }
    const auto total = static_cast<double>(trace.sessions.size());
    for (int hour = 0; hour < 24; ++hour) {
        const double expected =
            total * modulation[static_cast<std::size_t>(hour)] /
            modulation_total;
        if (expected >= 100.0) {
            EXPECT_NEAR(counts[static_cast<std::size_t>(hour)], expected,
                        0.30 * expected)
                << "hour " << hour;
        }
    }
    const double peak =
        counts[10] + counts[11] + counts[12] + counts[13];
    const double trough =
        counts[22] + counts[23] + counts[0] + counts[1];
    EXPECT_GE(peak, 3.0 * trough)
        << "mid-day window must dominate the midnight window";
}

}  // namespace
}  // namespace nbos
