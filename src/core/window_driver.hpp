/**
 * @file
 * The windowed driver behind core::run for both NotebookOS engines: the
 * discrete-event prototype (§5.2, protosim.cpp) and the fast analytic
 * engine (§5.5, fastsim_driver.cpp).
 *
 * Input is always a workload::SessionSource; core::run wraps a
 * materialized trace in a workload::TraceSessionSource. drive_windows()
 * steps a lockstep clock over the engine's window grid. At each stop it
 * admits the sessions whose start time the clock has reached, hands their
 * start / end / cell events to the engine in one canonical order, lets the
 * engine advance its shards to the stop, and retires every session whose
 * last event has executed — the engine drops its route and the feed frees
 * its spec — so memory tracks the live session population, not the trace
 * length. It is also the only place a cell's outcome row is created: one
 * row of the run's table per cell, appended as the cell is handed out, so
 * the table needs no merge or sort. The engine decides which shard an
 * event goes to (both engines through one sched::SessionRouter) and what
 * happens when a window closes (sampling, rebalancing). One shard is
 * simply the one-shard case of the same loop.
 *
 * Internal to nbos_core; callers use core::run (core/engine_api.hpp).
 */
#ifndef NBOS_CORE_WINDOW_DRIVER_HPP
#define NBOS_CORE_WINDOW_DRIVER_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine_api.hpp"
#include "workload/session_source.hpp"

namespace nbos::core {

/** The most simulated time either driver runs after the makespan so that
 *  in-flight cells can finish: an upper bound, since the prototype stops
 *  its drain at the first window boundary where every shard is settled
 *  (the fast engine's queue empties by itself). */
inline constexpr sim::Time kDrainWindow = 12 * sim::kHour;

/** Live sessions below which a run whose sessions never move admits ahead
 *  of their start times (see drive_windows). */
inline constexpr std::size_t kAdmitAhead = 1024;

/** One trace event, injected into the shard that owns its session. */
struct Injection
{
    /** Kind order at equal times: a cell submitted exactly at its
     *  session's end time is dropped. */
    enum Kind : std::int32_t
    {
        kStart = 0,
        kEnd = 1,
        kTask = 2,
    };

    sim::Time time = 0;
    const workload::SessionSpec* session = nullptr;
    Kind kind = kStart;
    /** The cell (kTask only). */
    const workload::CellTask* task = nullptr;
    /** Admission order: breaks the one tie (time, session, kind) leaves —
     *  two cells of one session submitted in the same tick. */
    std::uint64_t seq = 0;
    /** The cell's row in the run's outcome table (kTask only), set by
     *  drive_windows as it hands the cell out. */
    std::size_t row = 0;
};

/**
 * The input half of the driver: pulls sessions from a SessionSource, keeps
 * each admitted spec alive until its last event has executed, and yields
 * due events in (time, session, kind, admission) order.
 *
 * Events wait in one bucket per window of the grid and a bucket is sorted
 * only when it falls due, which is cheaper than one global heap. Every
 * `t` passed in must lie on the grid (a multiple of the window). All calls
 * happen on the driving thread between windows.
 */
class SessionFeed
{
  public:
    SessionFeed(workload::SessionSource& source, sim::Time window);

    const std::string& trace_name() const { return source_.trace_name(); }
    sim::Time makespan() const { return makespan_; }
    sim::Time window() const { return window_; }

    /** The first grid point at or after the next unadmitted session's
     *  start time; the maximum Time when the source is exhausted. */
    sim::Time next_admission() const;

    /** Admit the next session if it starts at or before @p t or, however
     *  late it starts, while fewer than @p ahead sessions are live.
     *  @return its spec (stable until retired), or nullptr if none is due.
     *  @throws std::invalid_argument when the source breaks its
     *          nondecreasing start-time contract or repeats a session id. */
    const workload::SessionSpec* admit_next(sim::Time t,
                                            std::size_t ahead = 0);

    /** Pop the next admitted event due at or before @p t.
     *  @return false when none is due. */
    bool next_due(sim::Time t, Injection& out);

    /** Free the specs whose last event is at or before @p t, calling
     *  @p on_retire(id) for each just before its spec is freed. Call only
     *  once every shard has run to @p t. */
    template <typename OnRetire>
    void retire_until(sim::Time t, OnRetire&& on_retire);

  private:
    /** A window-indexed run of buckets; front() is window `base`. */
    template <typename T>
    struct Calendar
    {
        std::int64_t base = 0;
        std::deque<std::vector<T>> buckets;

        /** The bucket of window @p slot, or of the first open window if
         *  that one has already been taken. */
        std::vector<T>& at(std::int64_t slot);
    };

    /** The grid window whose end covers @p t: ceil(t / window). */
    std::int64_t slot(sim::Time t) const;

    workload::SessionSource& source_;
    sim::Time window_;
    sim::Time makespan_;
    workload::SessionSpec pending_;
    bool has_pending_;
    sim::Time last_start_ = std::numeric_limits<sim::Time>::min();
    std::uint64_t next_seq_ = 0;
    /** Nodes are stable, so injected closures may hold spec pointers. */
    std::unordered_map<workload::SessionId, workload::SessionSpec> live_;
    Calendar<Injection> events_;
    /** The sorted bucket being handed out, and the next event in it. */
    std::vector<Injection> ready_;
    std::size_t next_ready_ = 0;
    /** Session ids by the window of their last event. */
    Calendar<workload::SessionId> retire_;
};

template <typename OnRetire>
void
SessionFeed::retire_until(sim::Time t, OnRetire&& on_retire)
{
    // Every event of a session whose last event is at or before t has
    // been injected and executed, so nothing references its spec any more
    // (in-flight engine work holds copies, not trace pointers).
    while (!retire_.buckets.empty() && retire_.base <= slot(t)) {
        for (const workload::SessionId id : retire_.buckets.front()) {
            on_retire(id);
            live_.erase(id);
        }
        retire_.buckets.pop_front();
        ++retire_.base;
    }
}

/**
 * The one NotebookOS driver loop. @p engine provides
 *
 *   - `admit(const workload::SessionSpec&)`: a session entered the feed;
 *   - `inject(const Injection&)`: route one due event to its shard; a
 *     cell arrives with its row already in @p tasks;
 *   - `advance(sim::Time stop)`: run every shard to @p stop;
 *   - `close_window(sim::Time stop, bool last)`: the shards reached
 *     @p stop (sample, and rebalance unless @p last);
 *   - `retire(workload::SessionId id)`: the session's last event has
 *     run (fired once per session, as the feed frees its spec);
 *   - `drain(sim::Time horizon)`: let in-flight work finish, running no
 *     shard past @p horizon (the prototype stops once it is settled).
 *
 * For each cell the loop appends a row to @p tasks — session, seq,
 * is_gpu, gpus and submit (the event's time) — before the engine sees it,
 * and passes its index in Injection::row. Rows are appended only here, on
 * the driving thread, before the advance that runs them, so shard threads
 * may write distinct rows by index as long as they hold no reference to
 * one across a stop. Rows come out in the feed's (time, session, kind,
 * admission) order, which is (submit, session, seq) order whenever each
 * session lists its cells in seq order.
 *
 * The loop stops on the feed's window grid, @p stride apart, and always
 * at the last window, the first grid point at or after the makespan;
 * events after it are never injected. @p stride is a multiple of the
 * window. A stride longer than one window is for an engine whose sessions
 * never move: it runs several windows per stop, injecting each window's
 * events before running to the window's end. Such a run also admits up to
 * kAdmitAhead live sessions ahead of their start times (their events
 * still reach the shards in their own windows) and skips every stop with
 * nothing to admit, since nothing else needs coordinating there.
 */
template <typename Engine>
void
drive_windows(SessionFeed& feed, sim::Time stride, Engine& engine,
              std::vector<TaskOutcome>& tasks)
{
    const sim::Time makespan = feed.makespan();
    const sim::Time window = feed.window();
    const sim::Time last =
        makespan <= 0 ? 0 : (makespan + window - 1) / window * window;
    const bool pinned = stride > window;
    for (sim::Time stop = 0;;) {
        while (const workload::SessionSpec* s =
                   feed.admit_next(stop, pinned ? kAdmitAhead : 0)) {
            engine.admit(*s);
        }
        Injection event;
        while (feed.next_due(stop, event)) {
            if (event.kind == Injection::kTask) {
                const workload::SessionSpec& session = *event.session;
                event.row = tasks.size();
                tasks.push_back(TaskOutcome{.session = session.id,
                                            .seq = event.task->seq,
                                            .gpus = session.resources.gpus,
                                            .is_gpu = event.task->is_gpu,
                                            .submit = event.time});
            }
            engine.inject(event);
        }
        engine.advance(stop);
        engine.close_window(stop, stop >= last);
        feed.retire_until(stop, [&engine](workload::SessionId id) {
            engine.retire(id);
        });
        if (stop >= last) {
            break;
        }
        stop = std::min(pinned ? std::max(stop + stride, feed.next_admission())
                               : stop + stride,
                        last);
    }
    engine.drain(makespan + kDrainWindow);
}

/** One shard's deterministic work counts, as merge_shards folds them. */
struct ShardWork
{
    /** Simulation events executed. */
    std::uint64_t events = 0;
    /** Load-index entries its placements examined
     *  (sched::LeastLoadedPolicy::servers_examined). */
    std::uint64_t placement_servers_examined = 0;
};

/**
 * The one cross-shard merge of both engines. @p parts holds each shard's
 * results and @p work its work counts, in shard order. Counters,
 * scheduler events (sched::merge_events), the sync / read / write latency
 * samples, store bytes and network stats are folded in shard order. The
 * response also carries the per-shard events and the sums of both work
 * counts, and a sharded run gets one sched_stats.shard_loads sample per
 * shard. Tasks are not merged: the run's one table (drive_windows) is
 * already complete. Every other field of the merged results is left for
 * the caller: identity, tasks, timelines, and finalize_tasks.
 */
RunResponse merge_shards(std::vector<ExperimentResults> parts,
                         const std::vector<ShardWork>& work);

/** The shared tail of both engines: tasks that never saw a reply are
 *  aborted, and the committed-GPU step series is rebuilt from the
 *  completed GPU tasks' execution intervals. */
void finalize_tasks(ExperimentResults& results);

/** Run the discrete-event prototype engine over @p source (protosim.cpp). */
RunResponse drive_prototype(workload::SessionSource& source,
                            const PlatformConfig& config);

/** Run the fast analytic engine over @p source (fastsim_driver.cpp). */
RunResponse drive_fast(workload::SessionSource& source,
                       const PlatformConfig& config);

}  // namespace nbos::core

#endif  // NBOS_CORE_WINDOW_DRIVER_HPP
