/**
 * @file
 * The fast analytic NotebookOS engine's driver: SchedulerConfig::shards
 * FastEngineShards advanced by the shared windowed driver loop on the
 * autoscale_interval grid, then merged deterministically in shard order.
 *
 * Sessions are routed to shards by a sched::SessionRouter
 * (SchedulerConfig::routing), the same router the prototype driver holds:
 * admitted as they enter the feed, forgotten once their last event has
 * run. Under `rebalance` the driver stops at every window so the router
 * can move sessions before the next window's events are routed to their
 * current owners. Under the other two policies sessions never move, so
 * nothing needs coordinating between windows: the driver stops at most
 * once per simulated hour, and only where a session is admitted, to admit
 * input and free drained specs; each shard injects its queued events
 * window by window on its own.
 *
 * Shards share nothing but the run's outcome table, where each writes
 * only its own cells' rows, so parallel windows (SchedulerConfig::
 * shard_parallel, persistent sim::Lockstep workers) are bit-identical to
 * serial ones.
 */
#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/fastsim_engine.hpp"
#include "sched/shard_router.hpp"
#include "sim/lockstep.hpp"

namespace nbos::core {
namespace {

/** How far apart a run whose sessions never move stops the lockstep
 *  clock (rounded down to whole windows, at least one). */
constexpr sim::Time kPinnedStopSpan = sim::kHour;

class FastRun
{
  public:
    FastRun(const PlatformConfig& config, const SessionFeed& feed,
            std::vector<TaskOutcome>& tasks)
        : config_(config),
          tasks_(tasks),
          trace_name_(feed.trace_name()),
          makespan_(feed.makespan()),
          router_(config.scheduler.routing, config.scheduler.shards),
          lockstep_(static_cast<std::size_t>(config.scheduler.shards),
                    config.scheduler.shard_parallel)
    {
        const std::int32_t count = config.scheduler.shards;
        for (std::int32_t i = 0; i < count; ++i) {
            shards_.push_back(std::make_unique<FastEngineShard>(
                config, makespan_, sched::shard_seed(config.seed, i),
                sched::ShardIdentity{i, count}, tasks));
            shards_.back()->start();
        }
    }

    /** Lockstep stops: every window when sessions can move, else at
     *  most once per kPinnedStopSpan. */
    sim::Time stride() const
    {
        const sim::Time window = config_.scheduler.autoscale_interval;
        if (router_.rebalancing()) {
            return window;
        }
        return std::max(window, kPinnedStopSpan / window * window);
    }

    void admit(const workload::SessionSpec& session)
    {
        router_.admit(session.id, session.tasks.size());
    }

    void inject(const Injection& event)
    {
        shards_[router_.shard_of(event.session->id)]->enqueue(event);
    }

    void advance(sim::Time stop)
    {
        lockstep_.run([this, stop](std::size_t shard) {
            shards_[shard]->advance(stop);
        });
    }

    void close_window(sim::Time, bool last)
    {
        if (!last) {
            router_.rebalance([this](std::size_t i) -> FastEngineShard& {
                return *shards_[i];
            });
        }
    }

    void retire(workload::SessionId id) { router_.forget(id); }

    void drain(sim::Time horizon)
    {
        lockstep_.run([this, horizon](std::size_t shard) {
            shards_[shard]->run_until(horizon);
        });
    }

    RunResponse finish();

  private:
    const PlatformConfig& config_;
    std::vector<TaskOutcome>& tasks_;
    std::string trace_name_;
    sim::Time makespan_;
    sched::SessionRouter router_;
    sim::Lockstep lockstep_;
    std::vector<std::unique_ptr<FastEngineShard>> shards_;
};

/** Merge the shards' results (finish() consumes them) in shard order. */
RunResponse
FastRun::finish()
{
    std::vector<ExperimentResults> parts;
    std::vector<ShardWork> work;
    parts.reserve(shards_.size());
    for (const auto& shard : shards_) {
        work.push_back(ShardWork{shard->events_executed(),
                                 shard->placement_servers_examined()});
        parts.push_back(shard->finish());
    }
    RunResponse response = merge_shards(std::move(parts), work);
    ExperimentResults& results = response.results;
    results.policy = Policy::kNotebookOS;
    results.trace_name = trace_name_;
    results.makespan = makespan_;
    results.tasks = std::move(tasks_);
    response.shard_busy_seconds = lockstep_.busy_seconds();
    response.sessions_rebalanced = router_.sessions_rebalanced();

    // Fleet timeline: sum the per-shard (time, ±gpus) deltas into one
    // step series. Equal-time deltas collapse into a single sample whose
    // value is order-independent, so the merge is deterministic.
    std::vector<std::pair<sim::Time, double>> gpu_deltas;
    for (const auto& shard : shards_) {
        gpu_deltas.insert(gpu_deltas.end(), shard->gpu_deltas().begin(),
                          shard->gpu_deltas().end());
    }
    results.provisioned_gpus = series_from_deltas(std::move(gpu_deltas));

    // Subscription ratio: every shard ticks on the same grid, so samples
    // merge positionally into the fleet-wide ratio.
    const std::vector<FastTickSample>& grid =
        shards_.front()->tick_samples();
    for (const auto& shard : shards_) {
        if (shard->tick_samples().size() != grid.size()) {
            throw std::logic_error(
                "fast engine: shard tick sample counts diverged");
        }
    }
    for (std::size_t k = 0; k < grid.size(); ++k) {
        std::int64_t subscribed = 0;
        std::int64_t gpus = 0;
        for (const auto& shard : shards_) {
            const FastTickSample& sample = shard->tick_samples()[k];
            subscribed += sample.subscribed_gpus;
            gpus += sample.total_gpus;
        }
        results.subscription_ratio.record(
            grid[k].time,
            cluster::subscription_ratio(
                subscribed, gpus, config_.scheduler.kernel.replica_count));
    }

    finalize_tasks(results);
    return response;
}

}  // namespace

RunResponse
drive_fast(workload::SessionSource& source, const PlatformConfig& config)
{
    SessionFeed feed(source, config.scheduler.autoscale_interval);
    std::vector<TaskOutcome> tasks;
    FastRun run(config, feed, tasks);
    drive_windows(feed, run.stride(), run, tasks);
    return run.finish();
}

}  // namespace nbos::core
