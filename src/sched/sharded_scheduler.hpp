/**
 * @file
 * The sharded Global Scheduler front-end for multi-core scale.
 *
 * N independent SchedulerShards — each with its own sim::Simulation,
 * network, fleet slice, data store, and RNG streams — are driven in
 * lockstep time windows. The kernel-id API routes sessions to shards by
 * a stable hash of the session id (ShardRouter), kernel ids are
 * allocated in disjoint arithmetic progressions so the owning shard is
 * recoverable from the id alone, and all outward-facing signals
 * (SchedulerStats, scheduler events, autoscaler inputs, latency
 * distributions) are merged deterministically in shard order. The
 * prototype engine's driver (core/protosim.cpp) instead routes whole
 * sessions with a sched::SessionRouter and addresses shard(i) directly.
 *
 * Because shards share no mutable state, run_until() may execute the
 * shard event loops on parallel threads with results bit-identical to a
 * serial sweep (pinned by determinism_test); SchedulerConfig::shards == 1
 * reduces to exactly one SchedulerShard with the default identity.
 */
#ifndef NBOS_SCHED_SHARDED_SCHEDULER_HPP
#define NBOS_SCHED_SHARDED_SCHEDULER_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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
     * config.shards < 1). Shard 0 derives its RNG streams from @p seed
     * exactly as a lone SchedulerShard does, so shards == 1 is
     * byte-identical to one; the other shards mix the shard index into
     * the seed.
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
    const ShardRouter& router() const { return router_; }
    /** Shard owning @p session_id: the stable hash route, the same across
     *  runs and seeds. */
    std::size_t shard_of(std::int64_t session_id) const
    {
        return router_.shard_of(session_id);
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

    /** Per-shard cumulative load samples (sessions, events, busy
     *  fraction), in shard order; also attached to stats(). */
    std::vector<ShardLoadSample> shard_loads() const;

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
    ShardRouter router_;
    sim::Lockstep lockstep_;
    std::vector<std::unique_ptr<ShardUnit>> shards_;
    sim::Time now_ = 0;
};

}  // namespace nbos::sched

#endif  // NBOS_SCHED_SHARDED_SCHEDULER_HPP
