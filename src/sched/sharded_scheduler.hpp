/**
 * @file
 * The sharded Global Scheduler front-end for multi-core scale.
 *
 * N independent SchedulerShards — each with its own sim::Simulation,
 * network, fleet slice, data store, and RNG streams — are driven in
 * lockstep time windows. Sessions are routed to shards by a stable hash
 * of the session id (ShardRouter), kernel ids are allocated in disjoint
 * arithmetic progressions so the owning shard is recoverable from the id
 * alone, and all outward-facing signals (SchedulerStats, scheduler
 * events, autoscaler inputs, latency distributions) are merged
 * deterministically in shard order.
 *
 * Because shards share no mutable state, run_until() may execute the
 * shard event loops on parallel threads with results bit-identical to a
 * serial sweep (pinned by determinism_test); SchedulerConfig::shards == 1
 * reduces to exactly the monolithic GlobalScheduler behaviour.
 */
#ifndef NBOS_SCHED_SHARDED_SCHEDULER_HPP
#define NBOS_SCHED_SHARDED_SCHEDULER_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sched/routing.hpp"
#include "sched/scheduler_types.hpp"
#include "sched/shard.hpp"
#include "sched/shard_router.hpp"
#include "sim/lockstep.hpp"

namespace nbos::sched {

class ShardedGlobalScheduler
{
  public:
    using ExecuteCallback = SchedulerShard::ExecuteCallback;
    using StartKernelCallback = SchedulerShard::StartKernelCallback;

    /**
     * Build `config.shards` shards (throws std::invalid_argument when
     * config.shards < 1). Shard 0 derives its
     * RNG streams from @p seed exactly as the monolithic scheduler does,
     * so shards == 1 is byte-identical to GlobalScheduler; the other
     * shards mix the shard index into the seed.
     */
    ShardedGlobalScheduler(SchedulerConfig config, std::uint64_t seed);
    ~ShardedGlobalScheduler();

    ShardedGlobalScheduler(const ShardedGlobalScheduler&) = delete;
    ShardedGlobalScheduler& operator=(const ShardedGlobalScheduler&) =
        delete;

    /** Start every shard (initial fleet slices + periodic services). */
    void start();

    /** @name Topology */
    ///@{
    std::int32_t shard_count() const
    {
        return static_cast<std::int32_t>(shards_.size());
    }
    const ShardRouter& router() const { return table_.router(); }
    /** The routing table (hash fallback + explicit assignments). */
    const RoutingTable& routing_table() const { return table_; }
    /** The active routing policy kind (SchedulerConfig::routing). */
    RoutingPolicyKind routing() const { return policy_->kind(); }
    /** Shard owning @p session_id. Under `static_hash` (the default, no
     *  table overrides) this is exactly the pre-routing hash route,
     *  stable across runs and seeds. */
    std::size_t shard_of(std::int64_t session_id) const
    {
        return table_.shard_of(session_id);
    }
    /** Shard that allocated @p kernel_id (ids stride over shards). */
    std::size_t shard_of_kernel(cluster::KernelId kernel_id) const;
    sim::Simulation& simulation(std::size_t shard);
    SchedulerShard& shard(std::size_t shard);
    ///@}

    /** @name Routed scheduler API
     *
     * Thread contract: between lockstep windows these may be called
     * freely from the driving thread. From *inside* a window (i.e. from
     * a simulation event) a call must target the calling shard's own
     * sessions/kernels — the router guarantees that for anything derived
     * from the shard's own session ids, and every in-tree caller
     * (micro_sched, the tests) follows it. Cross-shard calls mid-window
     * would race when shard_parallel is set.
     */
    ///@{
    /** Create a kernel for @p session_id on its owning shard. */
    void start_kernel(std::int64_t session_id,
                      const cluster::ResourceSpec& spec,
                      StartKernelCallback callback);
    void stop_kernel(cluster::KernelId kernel_id);
    void submit_execute(cluster::KernelId kernel_id, std::string code,
                        bool is_gpu, sim::Time submitted_at,
                        ExecuteCallback callback);
    kernel::KernelReplica* replica(cluster::KernelId kernel_id,
                                   std::int32_t index);
    void inject_replica_failure(cluster::KernelId kernel_id,
                                std::int32_t index);
    ///@}

    /** @name Session-addressed API + rebalancing (routing layer)
     *
     * The prototype engine's windowed driver (protosim.cpp) addresses
     * everything by session id; shards own the session ->
     * kernel bindings so whole sessions can move. admit_session and
     * rebalance_window mutate the routing table and therefore run only
     * on the driving thread between lockstep windows; the per-session
     * calls follow the same thread contract as the routed API above.
     */
    ///@{
    /** Route a new session via the policy, record the assignment, and
     *  bump the running load estimate (so a burst of admissions inside
     *  one window spreads out under `least_loaded`).
     *  @return the assigned shard. */
    std::size_t admit_session(std::int64_t session);
    /** Create the session's kernel on its assigned shard. */
    void begin_session(std::int64_t session,
                       const cluster::ResourceSpec& spec);
    /** Submit a cell addressed by session id to the owning shard.
     *  @return false when the shard dropped the cell (session unknown,
     *  ended, or failed) — no callback will ever fire for it. */
    bool submit_session_execute(std::int64_t session, std::string code,
                                bool is_gpu, sim::Time submitted_at,
                                ExecuteCallback callback);
    /** End a session on its owning shard (drops its table override). */
    void end_session(std::int64_t session);
    /**
     * Close a lockstep window: harvest per-shard loads (shard order),
     * refresh the admission load vector, and — under `rebalance` — plan
     * and apply whole-session migrations. The plan is a pure function
     * of the shard-order-merged loads, so it is identical for parallel
     * and serial window execution. @return sessions moved.
     */
    std::size_t rebalance_window();
    /** Whole sessions moved across shards so far (not a SchedulerStats
     *  counter: totals must stay policy-invariant). */
    std::uint64_t sessions_rebalanced() const
    {
        return sessions_rebalanced_;
    }
    /** Per-shard cumulative load samples (sessions, events, busy
     *  fraction), in shard order; also attached to stats(). */
    std::vector<ShardLoadSample> shard_loads() const;
    ///@}

    /**
     * Advance every shard to time @p t (one lockstep window). With
     * SchedulerConfig::shard_parallel and more than one shard, shards
     * 1..n-1 run on worker threads started once per scheduler
     * (sim::Lockstep); otherwise shards are swept serially in index
     * order. Both orders produce bit-identical states because shards
     * share nothing. A shard's exception is rethrown here.
     */
    void run_until(sim::Time t);

    /** Wall seconds each shard has spent in run_until, shard order. */
    const std::vector<double>& shard_busy_seconds() const
    {
        return lockstep_.busy_seconds();
    }

    /** The lockstep clock: the target of the last run_until window. */
    sim::Time now() const { return now_; }

    /** @name Deterministically merged signals (shard-index order) */
    ///@{
    SchedulerStats stats() const;
    std::vector<SchedulerEvent> events() const;
    metrics::Percentiles sync_latencies_ms() const;
    metrics::Percentiles store_read_ms() const;
    metrics::Percentiles store_write_ms() const;
    std::uint64_t store_bytes_written() const;
    /** Fleet-wide autoscaler signals: sums over the shard clusters. */
    std::int32_t total_gpus() const;
    std::int32_t total_committed_gpus() const;
    std::int32_t total_subscribed_gpus() const;
    std::size_t cluster_size() const;
    std::size_t live_kernels() const;
    /** Fleet-wide subscription ratio sum(S) / (sum(G) * R) (§3.4.1). */
    double cluster_sr() const;
    /** Total simulation events executed across shards (throughput). */
    std::uint64_t events_executed() const;
    /** Network delivery stats summed in shard order (chaos breakdown). */
    net::NetworkStats network_stats() const;
    ///@}

  private:
    struct ShardUnit
    {
        ShardUnit(const SchedulerConfig& config, std::uint64_t seed,
                  ShardIdentity identity)
            : simulation(sim::Simulation::Options{
                  true, &sim::SimMemoryPool::global()}),
              shard(simulation, config, seed, identity)
        {
        }

        /** Backing buffers recycle through the global pool so repeated
         *  specs in a sweep stop re-faulting cold pages. */
        sim::Simulation simulation;
        SchedulerShard shard;
    };

    SchedulerConfig config_;
    RoutingTable table_;
    std::unique_ptr<RoutingPolicy> policy_;
    sim::Lockstep lockstep_;
    std::vector<std::unique_ptr<ShardUnit>> shards_;
    sim::Time now_ = 0;
    /** Merged per-shard loads as of the last boundary, kept current
     *  across admissions (least_loaded input). */
    std::vector<ShardLoad> loads_;
    /** events_executed() high-water mark per shard (window deltas). */
    std::vector<std::uint64_t> window_events_;
    std::uint64_t sessions_rebalanced_ = 0;
};

}  // namespace nbos::sched

#endif  // NBOS_SCHED_SHARDED_SCHEDULER_HPP
