/**
 * @file
 * Internal shard unit of the fast analytic NotebookOS engine.
 *
 * FastEngineShard runs the analytic model over the sessions the fast
 * driver (fastsim_driver.cpp) routes to it, on its own event loop, with
 * its share of the initial fleet and a per-shard seed. It fills its cells'
 * rows of the run's one outcome table in place, by the index the driver
 * loop (core::drive_windows) created them at; the driver merges the
 * per-shard aggregates deterministically in shard order.
 *
 * This header is internal to nbos_core; callers use core::run.
 */
#ifndef NBOS_CORE_FASTSIM_ENGINE_HPP
#define NBOS_CORE_FASTSIM_ENGINE_HPP

#include <cstdint>
#include <deque>
#include <set>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/platform.hpp"
#include "core/results.hpp"
#include "core/window_driver.hpp"
#include "sched/placement.hpp"
#include "sched/routing.hpp"
#include "sched/session_table.hpp"
#include "sched/shard_router.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "storage/datastore.hpp"
#include "workload/trace.hpp"

namespace nbos::core {

/** One fleet-wide autoscaler-signal sample taken at a tick. Tick times are
 *  a pure function of (autoscale_interval, makespan), so every shard
 *  produces the same sample grid and the driver can merge positionally. */
struct FastTickSample
{
    sim::Time time = 0;
    std::int32_t subscribed_gpus = 0;
    std::int32_t total_gpus = 0;
};

/**
 * One shard of the fast analytic engine: the §5.5 companion-simulator
 * model (replicated kernels under the SR cap, dynamic GPU binding,
 * migration on placement failure, pre-warmed containers, §3.4.2
 * auto-scaler) over the sessions routed to it, with consensus latency
 * sampled instead of simulated per-message.
 *
 * Lifecycle: start(), then enqueue() / advance() window by window, then
 * run_until() to the drain horizon, then finish() exactly once. Shards
 * share nothing, so the driver may advance siblings on concurrent
 * threads; every other call happens on the driving thread between stops.
 */
class FastEngineShard
{
  public:
    /** @param makespan the trace's; autoscaler ticks stop after it.
     *  @param seed this shard's seed (sched::shard_seed).
     *  @param identity its position, which fixes its share of
     *         SchedulerConfig::initial_servers.
     *  @param tasks the run's outcome table; the shard writes only the
     *         rows of the cells it is given, by Injection::row. */
    FastEngineShard(const PlatformConfig& config, sim::Time makespan,
                    std::uint64_t seed, sched::ShardIdentity identity,
                    std::vector<TaskOutcome>& tasks);

    FastEngineShard(const FastEngineShard&) = delete;
    FastEngineShard& operator=(const FastEngineShard&) = delete;

    /** Provision the initial fleet and start the autoscaler ticks. */
    void start();

    /** Queue one of this shard's trace events; advance() schedules it
     *  just before running to the end of the event's window. */
    void enqueue(const Injection& event) { queued_.push_back(event); }

    /** Run up to @p stop on the autoscale_interval grid, scheduling each
     *  window's queued events right before running to the window's end —
     *  the same schedule calls, in the same order, as a driver that
     *  stopped at every window. Windows with nothing to schedule run as
     *  one stretch. */
    void advance(sim::Time stop);

    /** Run the event loop to @p t without injecting (the drain). */
    void run_until(sim::Time t);

    /** Finalize and move out this shard's aggregates — everything but
     *  the tasks, which are already in the run's table (call once,
     *  last). */
    ExperimentResults finish();

    /** Simulation events executed so far (throughput accounting). */
    std::uint64_t events_executed() const;

    /** Load-index entries this shard's placements examined so far. */
    std::uint64_t placement_servers_examined() const
    {
        return placement_.servers_examined();
    }

    /** Fleet-size changes as (time, ±gpus) deltas, for the driver-side
     *  merged provisioned_gpus series. */
    const std::vector<std::pair<sim::Time, double>>& gpu_deltas() const
    {
        return gpu_deltas_;
    }

    /** Per-tick autoscaler-signal samples, for the driver-side merged
     *  subscription_ratio series. */
    const std::vector<FastTickSample>& tick_samples() const
    {
        return tick_samples_;
    }

    /** @name Rebalancing (routing layer, `rebalance` policy only)
     *
     * Whole sessions move between shards at window boundaries, on the
     * driving thread (sched::SessionRouter::rebalance).
     */
    ///@{
    /** A whole analytic session packed for a cross-shard move. The
     *  executor binding stays behind (server ids are shard-local); the
     *  session's kernels_created contribution moves with it so merged
     *  totals stay policy-invariant. */
    struct SessionExtract
    {
        workload::SessionId session = -1;
        cluster::ResourceSpec spec{};
        std::uint64_t executions = 0;
    };

    /** Pack @p id for a cross-shard move: unsubscribe its replicas and
     *  drop the binding. @return false (no change) if it is not placed
     *  and alive, or has an analytic execution (or migration chain) in
     *  flight. */
    bool extract_session(workload::SessionId id, SessionExtract& out);

    /** Adopt an extracted session: rebind and re-place it here (pending
     *  placement aborts its tasks until placed — the analytic model's
     *  migration cost). Its kernels_created count does not repeat. */
    void adopt_session(const SessionExtract& extract);

    /** Report the closing window's load — per-session analytic task
     *  counts (id order) and their sum — and reset the window counters. */
    void harvest_window_load(sched::ShardLoad& load,
                             std::vector<sched::SessionLoad>& sessions);
    ///@}

  private:
    struct FastKernel
    {
        workload::SessionId session = -1;
        cluster::ResourceSpec spec{};
        std::vector<cluster::ServerId> servers;
        cluster::ServerId last_executor = cluster::kNoServer;
        bool alive = false;
        std::uint64_t executions = 0;
        /** Outstanding GPU executions / migration chains; a session is
         *  only movable at 0 (its completion closures index kernels_). */
        std::uint64_t inflight = 0;
        /** Analytic tasks submitted in the open window (`rebalance`
         *  only; harvested and reset at each boundary). */
        std::uint64_t window_tasks = 0;
        /** kernels_created already counted for this session (set at the
         *  first successful placement; carried across adoptions so the
         *  merged total is policy-invariant). */
        bool counted = false;
    };

    void add_server();
    void provision_server();
    sim::Time sample(sim::Time lo, sim::Time hi);
    void record_event(sched::SchedulerEvent::Kind kind);
    void record_fleet_size();
    void inject(const Injection& event);
    void start_session(const workload::SessionSpec& session);
    void place_kernel(workload::SessionId id);
    void place_pending_kernels();
    void end_session(const workload::SessionSpec& session);
    void run_task(std::size_t index, const workload::SessionSpec& session,
                  const workload::CellTask& task);
    void begin_execution(std::size_t index, workload::SessionId session_id,
                         cluster::ServerId server_id, sim::Time start,
                         sim::Time duration);
    void migrate_and_run(std::size_t index, workload::SessionId session_id,
                         sim::Time duration, int retries);
    /** End in-flight GPU cell @p index of session @p session_id, whose
     *  row is @p kernel, aborted. */
    void abort_cell(std::size_t index, workload::SessionId session_id,
                    FastKernel& kernel);
    void complete(std::size_t index, sim::Time start, sim::Time end,
                  sim::Time extra_reply, workload::SessionId session_id);
    /** Drop session @p id's row, @p kernel, once nothing of the session
     *  is left: it is neither alive nor waiting for placement, and has no
     *  GPU cell or migration chain in flight and no window load left to
     *  harvest. Erase moves another row into its place, so on every path
     *  this is the last touch of the row. */
    void retire_if_done(workload::SessionId id, const FastKernel& kernel);
    void schedule_tick();
    void tick();
    void finalize();

    PlatformConfig config_;
    sim::Time makespan_;
    sched::ShardIdentity identity_;
    sim::Simulation simulation_;
    sim::Rng rng_;
    storage::DataStore store_;
    cluster::Cluster cluster_;
    sched::LeastLoadedPolicy placement_;
    cluster::PrewarmPool prewarm_;
    /** Find-or-create @p id's row (the old map operator[] semantics). */
    FastKernel& kernel_at(workload::SessionId id)
    {
        return kernels_.cold_at(kernels_.insert(id));
    }

    /** One row per session with something left on this shard — alive,
     *  waiting for placement, or with a cell, migration chain or window
     *  load outstanding (retire_if_done) — so the table tracks the live
     *  population, not the trace length. Lookups are O(1) hashes into
     *  contiguous rows. Rows are not reference-stable across
     *  insert/erase — look up again after any call that may mutate. */
    sched::SessionTable<FastKernel> kernels_;
    std::set<workload::SessionId> pending_kernels_;
    /** Window load is only kept when it will be harvested. */
    bool track_window_load_;
    /** Sessions with window_tasks > 0 (pushed on the 0 -> 1 transition,
     *  sorted + cleared by harvest_window_load). */
    std::vector<workload::SessionId> window_active_;
    /** Routed events not yet scheduled, in injection order. */
    std::deque<Injection> queued_;
    /** End of the next window advance() runs to. */
    sim::Time next_window_ = 0;
    std::int32_t provisioning_ = 0;
    /** Previous cluster_.total_gpus(), for delta-form fleet recording. */
    double last_total_gpus_ = 0.0;
    std::vector<std::pair<sim::Time, double>> gpu_deltas_;
    std::vector<FastTickSample> tick_samples_;
    /** The run's outcome table; rows are indexed by Injection::row. */
    std::vector<TaskOutcome>& tasks_;
    ExperimentResults results_;
};

}  // namespace nbos::core

#endif  // NBOS_CORE_FASTSIM_ENGINE_HPP
