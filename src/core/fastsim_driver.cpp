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
 * Shards share nothing, so parallel windows (SchedulerConfig::
 * shard_parallel, persistent sim::Lockstep workers) are bit-identical to
 * serial ones.
 */
#include <algorithm>
#include <cstdint>
#include <iterator>
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
    FastRun(const PlatformConfig& config, const SessionFeed& feed)
        : config_(config),
          trace_name_(feed.trace_name()),
          makespan_(feed.makespan()),
          router_(config.scheduler.routing, config.scheduler.shards),
          lockstep_(static_cast<std::size_t>(config.scheduler.shards),
                    config.scheduler.shard_parallel)
    {
        // Round-robin split of the initial fleet (shares differ by at
        // most one server) and per-shard seeds (shard 0 keeps the
        // caller's).
        const std::int32_t count = config.scheduler.shards;
        const std::int32_t base = config.scheduler.initial_servers / count;
        const std::int32_t extra = config.scheduler.initial_servers % count;
        for (std::int32_t i = 0; i < count; ++i) {
            FastShardPlan plan;
            plan.makespan = makespan_;
            plan.initial_servers = base + (i < extra ? 1 : 0);
            plan.seed = sched::shard_seed(config.seed, i);
            shards_.push_back(std::make_unique<FastEngineShard>(plan, config));
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
    std::string trace_name_;
    sim::Time makespan_;
    sched::SessionRouter router_;
    sim::Lockstep lockstep_;
    std::vector<std::unique_ptr<FastEngineShard>> shards_;
};

/** Deterministic cross-shard merge, always in shard order. Consumes the
 *  shards' results (finish()). */
RunResponse
FastRun::finish()
{
    RunResponse response;
    ExperimentResults& results = response.results;
    results.policy = Policy::kNotebookOS;
    results.trace_name = trace_name_;
    results.makespan = makespan_;

    for (const auto& shard : shards_) {
        response.shard_events.push_back(shard->events_executed());
        response.events_executed += shard->events_executed();
    }
    response.shard_busy_seconds = lockstep_.busy_seconds();
    response.sessions_rebalanced = router_.sessions_rebalanced();

    std::vector<ExperimentResults> parts;
    parts.reserve(shards_.size());
    std::size_t total_tasks = 0;
    std::vector<std::vector<sched::SchedulerEvent>> shard_events;
    shard_events.reserve(shards_.size());
    for (const auto& shard : shards_) {
        ExperimentResults& part = parts.emplace_back(shard->finish());
        total_tasks += part.tasks.size();
        shard_events.push_back(std::move(part.events));
        results.sched_stats += part.sched_stats;
        results.read_ms.add_all(part.read_ms.sorted());
        results.write_ms.add_all(part.write_ms.sorted());
        results.store_bytes_written += part.store_bytes_written;
    }
    results.events = sched::merge_events(shard_events);

    // Tasks: each shard's outcomes are already in (submit, session, seq)
    // order, so one shard's vector is the answer as it stands. Several
    // are appended into shard 0's vector, each freed once moved, and
    // ordered in place — one copy of the tasks at a time.
    results.tasks = std::move(parts.front().tasks);
    results.tasks.reserve(total_tasks);
    for (std::size_t i = 1; i < parts.size(); ++i) {
        std::vector<TaskOutcome> part = std::move(parts[i].tasks);
        std::move(part.begin(), part.end(),
                  std::back_inserter(results.tasks));
    }
    sort_tasks(results.tasks);

    // Per-shard load telemetry (shard order), as the prototype's
    // ShardedGlobalScheduler::stats() reports it: only a sharded run has
    // a shard view.
    if (shards_.size() > 1) {
        for (const auto& shard : shards_) {
            sched::ShardLoadSample sample;
            sample.sessions = shard->live_sessions();
            sample.events = shard->events_executed();
            sample.busy_fraction =
                response.events_executed == 0
                    ? 0.0
                    : static_cast<double>(sample.events) /
                          static_cast<double>(response.events_executed);
            results.sched_stats.shard_loads.push_back(sample);
        }
    }

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
    // merge positionally into sum(S) / (sum(G) * R) — the same formula
    // Cluster::cluster_subscription_ratio applies to one fleet.
    const std::vector<FastTickSample>& grid =
        shards_.front()->tick_samples();
    for (const auto& shard : shards_) {
        if (shard->tick_samples().size() != grid.size()) {
            throw std::logic_error(
                "fast engine: shard tick sample counts diverged");
        }
    }
    const std::int32_t replicas =
        std::max<std::int32_t>(1, config_.scheduler.kernel.replica_count);
    for (std::size_t k = 0; k < grid.size(); ++k) {
        std::int64_t subscribed = 0;
        std::int64_t gpus = 0;
        for (const auto& shard : shards_) {
            const FastTickSample& sample = shard->tick_samples()[k];
            subscribed += sample.subscribed_gpus;
            gpus += sample.total_gpus;
        }
        const double ratio =
            gpus <= 0 ? 0.0
                      : static_cast<double>(subscribed) /
                            (static_cast<double>(gpus) *
                             static_cast<double>(replicas));
        results.subscription_ratio.record(grid[k].time, ratio);
    }

    finalize_tasks(results);
    return response;
}

}  // namespace

RunResponse
drive_fast(workload::SessionSource& source, const PlatformConfig& config)
{
    SessionFeed feed(source, config.scheduler.autoscale_interval);
    FastRun run(config, feed);
    drive_windows(feed, run.stride(), run);
    return run.finish();
}

}  // namespace nbos::core
