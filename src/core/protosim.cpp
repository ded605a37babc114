/**
 * @file
 * The discrete-event prototype NotebookOS engine (§5.2): Raft-replicated
 * kernels, executor elections, and the Global/Local schedulers, run over
 * sched::ShardedGlobalScheduler shards by the shared windowed driver.
 *
 * Windows follow the PlatformConfig::sample_interval grid. Sessions are
 * routed by a sched::SessionRouter, the same router the fast driver
 * holds: admitted as they enter the feed, forgotten once their last event
 * has run. At each boundary the fleet-wide provisioned GPUs and
 * subscription ratio are sampled, then, under `rebalance`, the router
 * moves whole sessions between shards, so a session's events always go to
 * the shard that owns it for the whole window.
 *
 * Determinism: admission and the rebalance plan are pure functions of
 * the admitted sessions and shard-order-merged loads, events are injected
 * in the feed's canonical order, and every cross-shard merge walks shards
 * in index order, so parallel windows are bit-identical to serial ones.
 */
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/window_driver.hpp"
#include "sched/sharded_scheduler.hpp"

namespace nbos::core {
namespace {

class PrototypeRun
{
  public:
    PrototypeRun(const PlatformConfig& config, const SessionFeed& feed)
        : scheduler_(config.scheduler, config.seed),
          router_(config.scheduler.routing, config.scheduler.shards)
    {
        scheduler_.start();
        results_.policy = Policy::kNotebookOS;
        results_.trace_name = feed.trace_name();
        results_.makespan = feed.makespan();
    }

    void admit(const workload::SessionSpec& session)
    {
        router_.admit(session.id, session.tasks.size());
    }

    void inject(const Injection& event)
    {
        const workload::SessionSpec* session = event.session;
        const std::size_t owner = router_.shard_of(session->id);
        sched::SchedulerShard* shard = &scheduler_.shard(owner);
        sim::Simulation* simulation = &scheduler_.simulation(owner);
        switch (event.kind) {
            case Injection::kStart:
                simulation->schedule_at(event.time, [shard, session] {
                    shard->begin_session(session->id, session->resources);
                });
                break;
            case Injection::kEnd:
                simulation->schedule_at(event.time, [shard, session] {
                    shard->end_session(session->id);
                });
                break;
            case Injection::kTask:
                submit(shard, simulation, event);
                break;
        }
    }

    void advance(sim::Time stop) { scheduler_.run_until(stop); }

    void close_window(sim::Time stop, bool last)
    {
        results_.provisioned_gpus.record(
            stop, static_cast<double>(scheduler_.total_gpus()));
        results_.subscription_ratio.record(stop, scheduler_.cluster_sr());
        if (!last) {
            router_.rebalance(
                [this](std::size_t i) -> sched::SchedulerShard& {
                    return scheduler_.shard(i);
                });
        }
    }

    void retire(workload::SessionId id) { router_.forget(id); }

    void drain(sim::Time horizon) { scheduler_.run_until(horizon); }

    RunResponse finish()
    {
        // Drop the cells no shard accepted (submitted after their
        // session ended). Slots were created in injection order, which is
        // already (submit, session, seq) order.
        std::size_t kept = 0;
        for (std::size_t i = 0; i < results_.tasks.size(); ++i) {
            if (!submitted_[i]) {
                continue;
            }
            if (kept != i) {
                results_.tasks[kept] = std::move(results_.tasks[i]);
            }
            ++kept;
        }
        results_.tasks.resize(kept);
        sort_tasks(results_.tasks);

        results_.events = scheduler_.events();
        results_.sched_stats = scheduler_.stats();
        results_.net_stats = scheduler_.network_stats();
        results_.sync_ms = scheduler_.sync_latencies_ms();
        results_.read_ms = scheduler_.store_read_ms();
        results_.write_ms = scheduler_.store_write_ms();
        results_.store_bytes_written = scheduler_.store_bytes_written();
        finalize_tasks(results_);

        RunResponse response;
        response.results = std::move(results_);
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(scheduler_.shard_count()); ++i) {
            response.shard_events.push_back(
                scheduler_.simulation(i).events_executed());
            response.events_executed += response.shard_events.back();
        }
        response.shard_busy_seconds = scheduler_.shard_busy_seconds();
        response.sessions_rebalanced = router_.sessions_rebalanced();
        return response;
    }

  private:
    /** Schedule one cell on its owner. The outcome slot is appended now,
     *  on the driving thread; the closures hold an index, so later growth
     *  of the vector between windows is safe. */
    void submit(sched::SchedulerShard* shard, sim::Simulation* simulation,
                const Injection& event)
    {
        const workload::SessionSpec* session = event.session;
        const workload::CellTask* task = event.task;
        TaskOutcome& outcome = results_.tasks.emplace_back();
        outcome.session = session->id;
        outcome.seq = task->seq;
        outcome.is_gpu = task->is_gpu;
        outcome.gpus = session->resources.gpus;
        submitted_.push_back(0);
        const std::size_t index = results_.tasks.size() - 1;
        simulation->schedule_at(event.time, [this, shard, simulation,
                                             session, task, index] {
            results_.tasks[index].submit = simulation->now();
            const bool accepted = shard->submit_session(
                session->id, task->code, task->is_gpu, simulation->now(),
                [this, index](const kernel::ExecutionResult& result,
                              const sched::RequestTrace& request_trace) {
                    TaskOutcome& done = results_.tasks[index];
                    done.trace = request_trace;
                    done.exec_start = request_trace.execution_started;
                    done.exec_end = request_trace.execution_finished;
                    done.reply = request_trace.client_replied;
                    done.migrated = request_trace.migrated;
                    done.aborted =
                        request_trace.aborted ||
                        result.status == kernel::ExecutionStatus::kError;
                    if (done.aborted) {
                        done.error = result.error;
                    }
                });
            if (accepted) {
                submitted_[index] = 1;
            }
        });
    }

    sched::ShardedGlobalScheduler scheduler_;
    sched::SessionRouter router_;
    ExperimentResults results_;
    /** Per outcome slot: did the owning shard accept the cell? */
    std::vector<char> submitted_;
};

}  // namespace

RunResponse
drive_prototype(workload::SessionSource& source, const PlatformConfig& config)
{
    SessionFeed feed(source, config.sample_interval);
    PrototypeRun run(config, feed);
    drive_windows(feed, config.sample_interval, run);
    return run.finish();
}

}  // namespace nbos::core
