/**
 * @file
 * The discrete-event prototype NotebookOS engine (§5.2): Raft-replicated
 * kernels, executor elections, and the Global/Local schedulers, run as
 * SchedulerConfig::shards sched::SchedulerShards, each on its own
 * sim::Simulation, by the shared windowed driver.
 *
 * Windows follow the PlatformConfig::sample_interval grid. Sessions are
 * routed by a sched::SessionRouter, the same router the fast driver
 * holds: admitted as they enter the feed, forgotten once their last event
 * has run. At each boundary the fleet-wide provisioned GPUs and
 * subscription ratio are sampled, then, under `rebalance`, the router
 * moves whole sessions between shards, so a session's events always go to
 * the shard that owns it for the whole window.
 *
 * After the last window the drain keeps stepping the same grid until every
 * shard is settled (sched::SchedulerShard::settled: no cell still owed a
 * reply, no kernel creation or server provisioning in flight), at most
 * kDrainWindow past the makespan. Sessions that outlive the trace keep
 * their kernels, and without the early stop their idle Raft heartbeats
 * would run the whole 12 h. Every cell the driver hands out keeps its
 * row; one its shard refused ends aborted.
 *
 * Determinism: admission and the rebalance plan are pure functions of
 * the admitted sessions and shard-order-merged loads, events are injected
 * in the feed's canonical order, each shard writes only its own cells'
 * rows of the run's outcome table, and every cross-shard sum walks shards
 * in index order (finish() through core::merge_shards), so parallel
 * windows are bit-identical to serial ones.
 */
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/window_driver.hpp"
#include "sched/shard.hpp"
#include "sim/lockstep.hpp"

namespace nbos::core {
namespace {

class PrototypeRun
{
  public:
    PrototypeRun(const PlatformConfig& config, const SessionFeed& feed,
                 std::vector<TaskOutcome>& tasks)
        : tasks_(tasks),
          replicas_(config.scheduler.kernel.replica_count),
          window_(config.sample_interval),
          trace_name_(feed.trace_name()),
          makespan_(feed.makespan()),
          router_(config.scheduler.routing, config.scheduler.shards),
          lockstep_(static_cast<std::size_t>(config.scheduler.shards),
                    config.scheduler.shard_parallel)
    {
        const std::int32_t count = config.scheduler.shards;
        for (std::int32_t i = 0; i < count; ++i) {
            shards_.push_back(std::make_unique<ShardUnit>(
                config.scheduler, sched::shard_seed(config.seed, i),
                sched::ShardIdentity{i, count}));
        }
        for (const auto& unit : shards_) {
            unit->shard.start();
        }
    }

    void admit(const workload::SessionSpec& session)
    {
        router_.admit(session.id, session.tasks.size());
    }

    void inject(const Injection& event)
    {
        const workload::SessionSpec* session = event.session;
        ShardUnit& unit = *shards_[router_.shard_of(session->id)];
        sched::SchedulerShard* shard = &unit.shard;
        switch (event.kind) {
            case Injection::kStart:
                unit.simulation.schedule_at(event.time, [shard, session] {
                    shard->begin_session(session->id, session->resources);
                });
                break;
            case Injection::kEnd:
                unit.simulation.schedule_at(event.time, [shard, session] {
                    shard->end_session(session->id);
                });
                break;
            case Injection::kTask:
                submit(unit, event);
                break;
        }
    }

    void advance(sim::Time stop)
    {
        // Shards share nothing (own simulation, network, cluster, store,
        // RNG), so the lockstep fork/join is the only synchronization.
        lockstep_.run([this, stop](std::size_t i) {
            shards_[i]->simulation.run_until(stop);
        });
        reached_ = stop;
    }

    void close_window(sim::Time stop, bool last)
    {
        std::int64_t gpus = 0;
        std::int64_t subscribed = 0;
        for (const auto& unit : shards_) {
            gpus += unit->shard.cluster().total_gpus();
            subscribed += unit->shard.cluster().total_subscribed_gpus();
        }
        provisioned_gpus_.record(stop, static_cast<double>(gpus));
        subscription_ratio_.record(
            stop, cluster::subscription_ratio(subscribed, gpus, replicas_));
        if (!last) {
            router_.rebalance(
                [this](std::size_t i) -> sched::SchedulerShard& {
                    return shards_[i]->shard;
                });
        }
    }

    void retire(workload::SessionId id) { router_.forget(id); }

    /** Keep stepping the window grid past the last window until every
     *  shard is settled, or to @p horizon. Once settled no outcome row can
     *  change; what is left is idle upkeep after the makespan (mostly Raft
     *  heartbeats of kernels whose sessions outlive the trace), outside
     *  the GPU-hour integrals and the fleet series. The check runs on the
     *  driving thread between steps and reads only shard state, so
     *  parallel and serial runs stop at the same boundary. */
    void drain(sim::Time horizon)
    {
        while (reached_ < horizon && !settled()) {
            advance(std::min(reached_ + window_, horizon));
        }
    }

    RunResponse finish()
    {
        std::vector<ExperimentResults> parts(shards_.size());
        std::vector<ShardWork> work;
        for (std::size_t i = 0; i < shards_.size(); ++i) {
            const sched::SchedulerShard& shard = shards_[i]->shard;
            ExperimentResults& part = parts[i];
            part.sched_stats = shard.stats();
            part.events = shard.events();
            part.sync_ms = shard.sync_latencies_ms();
            part.read_ms = shard.store().read_latencies();
            part.write_ms = shard.store().write_latencies();
            part.store_bytes_written = shard.store().bytes_written();
            part.net_stats = shard.network_stats();
            work.push_back(
                ShardWork{shards_[i]->simulation.events_executed(),
                          shard.placement_servers_examined()});
        }
        RunResponse response = merge_shards(std::move(parts), work);
        ExperimentResults& results = response.results;
        results.policy = Policy::kNotebookOS;
        results.trace_name = trace_name_;
        results.makespan = makespan_;
        results.tasks = std::move(tasks_);
        results.provisioned_gpus = std::move(provisioned_gpus_);
        results.subscription_ratio = std::move(subscription_ratio_);
        finalize_tasks(results);
        response.shard_busy_seconds = lockstep_.busy_seconds();
        response.sessions_rebalanced = router_.sessions_rebalanced();
        return response;
    }

  private:
    bool settled() const
    {
        return std::all_of(shards_.begin(), shards_.end(),
                           [](const std::unique_ptr<ShardUnit>& unit) {
                               return unit->shard.settled();
                           });
    }

    /** One shard and the event loop it runs on. */
    struct ShardUnit
    {
        ShardUnit(const sched::SchedulerConfig& config, std::uint64_t seed,
                  sched::ShardIdentity identity)
            : simulation(sim::Simulation::Options{
                  true, &sim::SimMemoryPool::global()}),
              shard(simulation, config, seed, identity)
        {
        }

        /** Backing buffers recycle through the global pool so repeated
         *  specs in a sweep stop re-faulting cold pages. */
        sim::Simulation simulation;
        sched::SchedulerShard shard;
    };

    /** Schedule one cell on its owner. Its row already exists (the driver
     *  loop appended it); the closures hold the row's index, so later
     *  growth of the table between windows is safe. A cell its shard
     *  refuses (its session has ended or failed) never gets a reply, so
     *  finalize_tasks marks its row aborted, as the fast engine does. */
    void submit(ShardUnit& unit, const Injection& event)
    {
        const workload::SessionSpec* session = event.session;
        const workload::CellTask* task = event.task;
        const std::size_t index = event.row;
        sched::SchedulerShard* shard = &unit.shard;
        sim::Simulation* simulation = &unit.simulation;
        simulation->schedule_at(event.time, [this, shard, simulation,
                                             session, task, index] {
            shard->submit_session(
                session->id,
                task->code.empty() ? workload::cell_code(*session, *task)
                                   : task->code,
                task->is_gpu, simulation->now(),
                [this, index](const kernel::ExecutionResult& result,
                              const sched::RequestTrace& request_trace) {
                    TaskOutcome& done = tasks_[index];
                    done.exec_start = request_trace.execution_started;
                    done.exec_end = request_trace.execution_finished;
                    done.reply = request_trace.client_replied;
                    done.migrated = request_trace.migrated;
                    done.aborted =
                        request_trace.aborted ||
                        result.status == kernel::ExecutionStatus::kError;
                    done.gs_received = request_trace.gs_received;
                    done.gs_dispatched = request_trace.gs_dispatched;
                    done.replica_received = request_trace.replica_received;
                    done.replica_replied = request_trace.replica_replied;
                    done.election_latency = request_trace.election_latency;
                });
        });
    }

    /** The run's outcome table, one row per injected cell. */
    std::vector<TaskOutcome>& tasks_;
    std::int32_t replicas_;
    sim::Time window_;
    std::string trace_name_;
    sim::Time makespan_;
    sched::SessionRouter router_;
    sim::Lockstep lockstep_;
    std::vector<std::unique_ptr<ShardUnit>> shards_;
    /** The time every shard has run to. */
    sim::Time reached_ = 0;
    metrics::TimeSeries provisioned_gpus_;
    metrics::TimeSeries subscription_ratio_;
};

}  // namespace

RunResponse
drive_prototype(workload::SessionSource& source, const PlatformConfig& config)
{
    SessionFeed feed(source, config.sample_interval);
    std::vector<TaskOutcome> tasks;
    PrototypeRun run(config, feed, tasks);
    drive_windows(feed, config.sample_interval, run, tasks);
    return run.finish();
}

}  // namespace nbos::core
