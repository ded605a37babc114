/**
 * @file
 * Scheduler-facing value types shared by the per-shard engine
 * (SchedulerShard) and the engines built on it: tunables, cluster events,
 * request traces, and counters, plus the deterministic cross-shard event
 * merge.
 */
#ifndef NBOS_SCHED_SCHEDULER_TYPES_HPP
#define NBOS_SCHED_SCHEDULER_TYPES_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "chaos/config.hpp"
#include "cluster/resources.hpp"
#include "cluster/server.hpp"
#include "kernel/replica.hpp"
#include "sched/autoscaler.hpp"
#include "sched/routing.hpp"
#include "sim/time.hpp"
#include "storage/datastore.hpp"

namespace nbos::sched {

/** Network-hop latency ranges along the request path (Fig. 15 steps). */
struct HopLatencies
{
    sim::Time client_to_gs_min = 1 * sim::kMillisecond;
    sim::Time client_to_gs_max = 3 * sim::kMillisecond;
    sim::Time gs_to_ls_min = 300 * sim::kMicrosecond;
    sim::Time gs_to_ls_max = 1 * sim::kMillisecond;
    sim::Time ls_to_replica_min = 100 * sim::kMicrosecond;
    sim::Time ls_to_replica_max = 400 * sim::kMicrosecond;
};

/** All scheduler tunables. */
struct SchedulerConfig
{
    kernel::KernelConfig kernel{};
    cluster::ResourceSpec server_shape = cluster::ResourceSpec::server_8gpu();
    std::int32_t initial_servers = 4;
    /** Hard per-server SR watermark (prevents excessive
     *  over-subscription; Fig. 10's SR peaks near 3). */
    double sr_watermark = 3.0;
    AutoScalerConfig autoscaler{};
    sim::Time autoscale_interval = 30 * sim::kSecond;
    bool enable_autoscaler = true;
    /** Pre-warmed containers maintained per server (migration pool). */
    std::int32_t prewarm_per_server = 1;
    sim::Time prewarm_check_interval = 15 * sim::kSecond;
    cluster::ContainerTimings timings{};
    /** EC2-style server provisioning time for scale-out. */
    sim::Time server_provision_min = 30 * sim::kSecond;
    sim::Time server_provision_max = 90 * sim::kSecond;
    HopLatencies hops{};
    /** Enable GS-side executor pre-selection (yield conversion). */
    bool yield_conversion = true;
    sim::Time gs_processing = 1 * sim::kMillisecond;
    sim::Time ls_processing = 300 * sim::kMicrosecond;
    /** Failed-migration retry spacing and budget (§3.2.3). */
    sim::Time migration_retry = 10 * sim::kSecond;
    std::int32_t migration_max_retries = 5;
    /** §3.4.2: a failed placement (kernel creation or migration) triggers
     *  an immediate scale-out, independent of the periodic auto-scaler. */
    bool scale_out_on_failed_placement = true;
    /** Replica health-check period (§3.2.5 heartbeats). */
    sim::Time health_check_interval = 10 * sim::kSecond;
    storage::Backend store_backend = storage::Backend::kS3;
    /**
     * Scheduler shard count. 1 (the default) is the monolithic scheduler —
     * byte-identical to the pre-sharding implementation. With N > 1 both
     * NotebookOS engines partition sessions across N independent shards
     * (routed by `routing`), divide `initial_servers` round-robin across
     * the shard fleets, and merge stats, events, and autoscaler signals
     * deterministically in shard order.
     */
    std::int32_t shards = 1;
    /** Run shard event loops on parallel threads inside each lockstep
     *  window. Shards share no mutable state, so parallel execution is
     *  bit-identical to serial (pinned by determinism_test); disabling is
     *  only useful for debugging and for that equivalence test. */
    bool shard_parallel = true;
    /**
     * Session -> shard routing policy, applied by the sched::SessionRouter
     * that both NotebookOS engine drivers hold (sched/routing.hpp). The
     * default, `static_hash`, is the pure splitmix64 route —
     * byte-identical to the pre-routing implementation at every shard
     * count. `least_loaded` admits each new session to the shard with the
     * least cumulative admitted weight (cells + 1 per session; ties:
     * fewest sessions admitted, then lowest index). `rebalance` keeps hash
     * admission but migrates whole sessions between shards at window
     * boundaries, with the plan computed as a pure function of
     * shard-order-merged window loads. Ignored at shards == 1 (a single
     * shard has nothing to balance).
     */
    RoutingPolicyKind routing = RoutingPolicyKind::kStaticHash;
    /**
     * Deterministic fault injection (chaos tier). When enabled, each shard
     * installs a seeded `chaos::FaultPlan` — drop bursts, partitions +
     * heals, replica crash/restart, clock skew, latency spikes — into its
     * own network/simulation, with optional RECORD / REPLAY attachments.
     * Off by default; a disabled chaos config leaves every run byte-
     * identical to the pre-chaos implementation.
     */
    chaos::ChaosConfig chaos{};
};

/** Cluster-level events for the Fig. 10 timeline. */
struct SchedulerEvent
{
    enum class Kind
    {
        kKernelCreated,
        kMigration,
        kScaleOut,
        kScaleIn,
    };
    Kind kind;
    sim::Time time;
};

/** Per-request timing trace (drives the Fig. 15-19 breakdowns). */
struct RequestTrace
{
    sim::Time submitted_at = 0;
    sim::Time gs_received = 0;
    sim::Time gs_dispatched = 0;
    sim::Time ls_received = 0;
    sim::Time replica_received = 0;
    sim::Time execution_started = 0;
    sim::Time execution_finished = 0;
    sim::Time replica_replied = 0;
    sim::Time client_replied = 0;
    sim::Time election_latency = 0;
    bool migrated = false;
    bool aborted = false;
};

/** One shard's share of a sharded run (load/imbalance telemetry). */
struct ShardLoadSample
{
    /** Simulation events the shard executed. */
    std::uint64_t events = 0;
};

/** Scheduler-wide counters. */
struct SchedulerStats
{
    std::uint64_t kernels_created = 0;
    std::uint64_t executions_completed = 0;
    std::uint64_t executions_aborted = 0;
    std::uint64_t elections_failed = 0;
    std::uint64_t migrations = 0;
    std::uint64_t migrations_aborted = 0;
    std::uint64_t scale_outs = 0;
    std::uint64_t scale_ins = 0;
    std::uint64_t yield_conversions = 0;
    std::uint64_t immediate_commits = 0;
    std::uint64_t executor_reuses = 0;
    std::uint64_t gpu_executions = 0;
    std::uint64_t prewarm_hits = 0;
    std::uint64_t cold_starts = 0;
    std::uint64_t replica_failovers = 0;

    /**
     * Per-shard load telemetry, in shard order (empty for monolithic
     * runs). NOT a counter: core::merge_shards fills it after the
     * counter merge, so it is deliberately excluded from operator+= and
     * operator== — routing policies change how work spreads over shards
     * without changing any merged total, and the policy-invariance /
     * shard-count-invariance property tests compare the counters only.
     */
    std::vector<ShardLoadSample> shard_loads;

    /** Imbalance factor: max over mean of per-shard events (1.0 is a
     *  perfect spread; the multi-core speedup cap is shards/imbalance).
     *  0 when no per-shard telemetry is present. */
    double shard_imbalance() const
    {
        if (shard_loads.empty()) {
            return 0.0;
        }
        std::uint64_t max_events = 0, total = 0;
        for (const ShardLoadSample& shard : shard_loads) {
            max_events = std::max(max_events, shard.events);
            total += shard.events;
        }
        if (total == 0) {
            return 0.0;
        }
        const double mean = static_cast<double>(total) /
                            static_cast<double>(shard_loads.size());
        return static_cast<double>(max_events) / mean;
    }
};

/** Field-wise accumulation (cross-shard merge runs in shard order). */
inline SchedulerStats&
operator+=(SchedulerStats& into, const SchedulerStats& other)
{
    into.kernels_created += other.kernels_created;
    into.executions_completed += other.executions_completed;
    into.executions_aborted += other.executions_aborted;
    into.elections_failed += other.elections_failed;
    into.migrations += other.migrations;
    into.migrations_aborted += other.migrations_aborted;
    into.scale_outs += other.scale_outs;
    into.scale_ins += other.scale_ins;
    into.yield_conversions += other.yield_conversions;
    into.immediate_commits += other.immediate_commits;
    into.executor_reuses += other.executor_reuses;
    into.gpu_executions += other.gpu_executions;
    into.prewarm_hits += other.prewarm_hits;
    into.cold_starts += other.cold_starts;
    into.replica_failovers += other.replica_failovers;
    return into;
}

inline bool
operator==(const SchedulerStats& a, const SchedulerStats& b)
{
    return a.kernels_created == b.kernels_created &&
           a.executions_completed == b.executions_completed &&
           a.executions_aborted == b.executions_aborted &&
           a.elections_failed == b.elections_failed &&
           a.migrations == b.migrations &&
           a.migrations_aborted == b.migrations_aborted &&
           a.scale_outs == b.scale_outs && a.scale_ins == b.scale_ins &&
           a.yield_conversions == b.yield_conversions &&
           a.immediate_commits == b.immediate_commits &&
           a.executor_reuses == b.executor_reuses &&
           a.gpu_executions == b.gpu_executions &&
           a.prewarm_hits == b.prewarm_hits &&
           a.cold_starts == b.cold_starts &&
           a.replica_failovers == b.replica_failovers;
}

/**
 * Deterministic cross-shard event merge: stable merge by timestamp with
 * the shard index breaking ties, so the result is independent of how the
 * per-shard streams were produced (serial or parallel windows).
 *
 * @param per_shard event streams in shard order, each time-sorted.
 */
inline std::vector<SchedulerEvent>
merge_events(const std::vector<std::vector<SchedulerEvent>>& per_shard)
{
    std::vector<SchedulerEvent> merged;
    std::size_t total = 0;
    for (const auto& events : per_shard) {
        total += events.size();
    }
    merged.reserve(total);
    // One tagged stream, stably sorted: ties keep shard order because the
    // concatenation lists shard 0's events first and the sort is stable.
    for (const auto& events : per_shard) {
        merged.insert(merged.end(), events.begin(), events.end());
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const SchedulerEvent& a, const SchedulerEvent& b) {
                         return a.time < b.time;
                     });
    return merged;
}

}  // namespace nbos::sched

#endif  // NBOS_SCHED_SCHEDULER_TYPES_HPP
