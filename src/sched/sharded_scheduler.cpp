#include "sched/sharded_scheduler.hpp"

namespace nbos::sched {

// Per-shard seeds come from sched::shard_seed (shard_router.hpp), shared
// with the sharded fast engine so both sharding layers mix seeds the same
// way.

ShardedGlobalScheduler::ShardedGlobalScheduler(SchedulerConfig config,
                                               std::uint64_t seed)
    : config_(std::move(config)),
      router_(config_.shards),
      lockstep_(static_cast<std::size_t>(router_.shards()),
                config_.shard_parallel)
{
    const std::int32_t count = router_.shards();
    shards_.reserve(static_cast<std::size_t>(count));
    for (std::int32_t i = 0; i < count; ++i) {
        shards_.push_back(std::make_unique<ShardUnit>(
            config_, shard_seed(seed, i), ShardIdentity{i, count}));
    }
}

ShardedGlobalScheduler::~ShardedGlobalScheduler() = default;

void
ShardedGlobalScheduler::start()
{
    for (const auto& unit : shards_) {
        unit->shard.start();
    }
}

std::size_t
ShardedGlobalScheduler::shard_of_kernel(cluster::KernelId kernel_id) const
{
    // Invalid/sentinel ids (kNoKernel, 0) route to shard 0, whose own
    // unknown-kernel handling preserves the monolithic contract
    // (submit_execute errors the callback, stop_kernel is a no-op,
    // replica returns nullptr) instead of indexing out of bounds.
    if (kernel_id < 1) {
        return 0;
    }
    return static_cast<std::size_t>((kernel_id - 1) %
                                    static_cast<cluster::KernelId>(
                                        shards_.size()));
}

sim::Simulation&
ShardedGlobalScheduler::simulation(std::size_t shard)
{
    return shards_.at(shard)->simulation;
}

SchedulerShard&
ShardedGlobalScheduler::shard(std::size_t shard)
{
    return shards_.at(shard)->shard;
}

void
ShardedGlobalScheduler::start_kernel(std::int64_t session_id,
                                     const cluster::ResourceSpec& spec,
                                     StartKernelCallback callback)
{
    shards_[shard_of(session_id)]->shard.start_kernel(spec,
                                                      std::move(callback));
}

void
ShardedGlobalScheduler::stop_kernel(cluster::KernelId kernel_id)
{
    shards_[shard_of_kernel(kernel_id)]->shard.stop_kernel(kernel_id);
}

void
ShardedGlobalScheduler::submit_execute(cluster::KernelId kernel_id,
                                       std::string code, bool is_gpu,
                                       sim::Time submitted_at,
                                       ExecuteCallback callback)
{
    shards_[shard_of_kernel(kernel_id)]->shard.submit_execute(
        kernel_id, std::move(code), is_gpu, submitted_at,
        std::move(callback));
}

kernel::KernelReplica*
ShardedGlobalScheduler::replica(cluster::KernelId kernel_id,
                                std::int32_t index)
{
    return shards_[shard_of_kernel(kernel_id)]->shard.replica(kernel_id,
                                                              index);
}

void
ShardedGlobalScheduler::inject_replica_failure(cluster::KernelId kernel_id,
                                               std::int32_t index)
{
    shards_[shard_of_kernel(kernel_id)]->shard.inject_replica_failure(
        kernel_id, index);
}

std::vector<ShardLoadSample>
ShardedGlobalScheduler::shard_loads() const
{
    std::vector<ShardLoadSample> samples;
    samples.reserve(shards_.size());
    std::uint64_t total = 0;
    for (const auto& unit : shards_) {
        total += unit->simulation.events_executed();
    }
    for (const auto& unit : shards_) {
        ShardLoadSample sample;
        sample.sessions =
            static_cast<std::int64_t>(unit->shard.live_kernels());
        sample.events = unit->simulation.events_executed();
        sample.busy_fraction =
            total == 0 ? 0.0
                       : static_cast<double>(sample.events) /
                             static_cast<double>(total);
        samples.push_back(sample);
    }
    return samples;
}

void
ShardedGlobalScheduler::run_until(sim::Time t)
{
    // Shards are fully disjoint (own simulation, network, cluster, store,
    // RNG), so the lockstep fork/join is the only synchronization needed.
    lockstep_.run([this, t](std::size_t shard) {
        shards_[shard]->simulation.run_until(t);
    });
    now_ = t;
}

SchedulerStats
ShardedGlobalScheduler::stats() const
{
    SchedulerStats merged;
    for (const auto& unit : shards_) {
        merged += unit->shard.stats();
    }
    if (shards_.size() > 1) {
        merged.shard_loads = shard_loads();
    }
    return merged;
}

std::vector<SchedulerEvent>
ShardedGlobalScheduler::events() const
{
    std::vector<std::vector<SchedulerEvent>> per_shard;
    per_shard.reserve(shards_.size());
    for (const auto& unit : shards_) {
        per_shard.push_back(unit->shard.events());
    }
    return merge_events(per_shard);
}

metrics::Percentiles
ShardedGlobalScheduler::sync_latencies_ms() const
{
    metrics::Percentiles merged;
    for (const auto& unit : shards_) {
        merged.add_all(unit->shard.sync_latencies_ms().sorted());
    }
    return merged;
}

metrics::Percentiles
ShardedGlobalScheduler::store_read_ms() const
{
    metrics::Percentiles merged;
    for (const auto& unit : shards_) {
        merged.add_all(unit->shard.store().read_latencies().sorted());
    }
    return merged;
}

metrics::Percentiles
ShardedGlobalScheduler::store_write_ms() const
{
    metrics::Percentiles merged;
    for (const auto& unit : shards_) {
        merged.add_all(unit->shard.store().write_latencies().sorted());
    }
    return merged;
}

std::uint64_t
ShardedGlobalScheduler::store_bytes_written() const
{
    std::uint64_t total = 0;
    for (const auto& unit : shards_) {
        total += unit->shard.store().bytes_written();
    }
    return total;
}

std::int32_t
ShardedGlobalScheduler::total_gpus() const
{
    std::int32_t total = 0;
    for (const auto& unit : shards_) {
        total += unit->shard.cluster().total_gpus();
    }
    return total;
}

std::int32_t
ShardedGlobalScheduler::total_committed_gpus() const
{
    std::int32_t total = 0;
    for (const auto& unit : shards_) {
        total += unit->shard.cluster().total_committed_gpus();
    }
    return total;
}

std::int32_t
ShardedGlobalScheduler::total_subscribed_gpus() const
{
    std::int32_t total = 0;
    for (const auto& unit : shards_) {
        total += unit->shard.cluster().total_subscribed_gpus();
    }
    return total;
}

std::size_t
ShardedGlobalScheduler::cluster_size() const
{
    std::size_t total = 0;
    for (const auto& unit : shards_) {
        total += unit->shard.cluster().size();
    }
    return total;
}

std::size_t
ShardedGlobalScheduler::live_kernels() const
{
    std::size_t total = 0;
    for (const auto& unit : shards_) {
        total += unit->shard.live_kernels();
    }
    return total;
}

double
ShardedGlobalScheduler::cluster_sr() const
{
    // Same formula as Cluster::cluster_subscription_ratio, but over the
    // union of the shard fleets: sum(S) / (sum(G) * R).
    const std::int32_t gpus = total_gpus();
    if (gpus <= 0) {
        return 0.0;
    }
    const std::int32_t replicas = config_.kernel.replica_count;
    return static_cast<double>(total_subscribed_gpus()) /
           (static_cast<double>(gpus) *
            static_cast<double>(replicas < 1 ? 1 : replicas));
}

std::uint64_t
ShardedGlobalScheduler::events_executed() const
{
    std::uint64_t total = 0;
    for (const auto& unit : shards_) {
        total += unit->simulation.events_executed();
    }
    return total;
}

net::NetworkStats
ShardedGlobalScheduler::network_stats() const
{
    net::NetworkStats total;
    for (const auto& unit : shards_) {
        total += unit->shard.network_stats();
    }
    return total;
}

}  // namespace nbos::sched
