#include "core/baselines.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "cluster/cluster.hpp"
#include "nblang/catalog.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "storage/datastore.hpp"

namespace nbos::core {

namespace {

/** Batch releases empty servers after this idle period. */
constexpr sim::Time kBatchIdleRelease = 2 * sim::kMinute;
/** LCP keeps warm servers longer before releasing them. */
constexpr sim::Time kLcpIdleRelease = 10 * sim::kMinute;
/** Warm containers maintained per server in the LCP pool. */
constexpr std::int32_t kLcpWarmPerServer = 4;

/** Common machinery of the three baselines. The fleet's hardware and
 *  timings are the NotebookOS scheduler's, so every policy runs on the
 *  same servers. */
class BaselineEngine
{
  public:
    BaselineEngine(Policy policy, const workload::Trace& trace,
                   const sched::SchedulerConfig& config, std::uint64_t seed)
        : policy_(policy),
          trace_(trace),
          config_(config),
          rng_(seed),
          store_(simulation_, config.store_backend,
                 sim::Rng(seed ^ 0x517cc1b7)),
          cluster_(config.server_shape)
    {
        results_.policy = policy;
        results_.trace_name = trace.name;
        results_.makespan = trace.makespan;
        preload_artifacts();
    }

    virtual ~BaselineEngine() = default;

    ExperimentResults
    run()
    {
        schedule_workload();
        // Periodic services (reapers) reschedule forever; a bounded drain
        // window lets queued long tasks finish without running unbounded.
        simulation_.run_until(trace_.makespan + 24 * sim::kHour);
        finalize();
        return std::move(results_);
    }

  protected:
    virtual void on_session_start(const workload::SessionSpec& session) = 0;
    virtual void on_session_end(const workload::SessionSpec& session) = 0;
    virtual void on_task(const workload::SessionSpec& session,
                         const workload::CellTask& task) = 0;

    /** Preload model/dataset artifacts into the object store (the paper's
     *  S3 bucket of models and datasets, §5.1.2). */
    void
    preload_artifacts()
    {
        for (const auto& model : nblang::model_catalog()) {
            store_.write("model/" + model.name, model.param_bytes, nullptr);
        }
        for (const auto& dataset : nblang::dataset_catalog()) {
            store_.write("dataset/" + dataset.name, dataset.bytes, nullptr);
        }
    }

    void
    schedule_workload()
    {
        for (const workload::SessionSpec& session : trace_.sessions) {
            simulation_.schedule_at(session.start_time, [this, &session] {
                on_session_start(session);
            });
            if (session.end_time < trace_.makespan) {
                simulation_.schedule_at(session.end_time, [this, &session] {
                    on_session_end(session);
                });
            }
            for (const workload::CellTask& task : session.tasks) {
                simulation_.schedule_at(task.submit_time,
                                        [this, &session, &task] {
                                            on_task(session, task);
                                        });
            }
        }
    }

    void
    finalize()
    {
        results_.committed_gpus = series_from_deltas(committed_deltas_);
        results_.read_ms = store_.read_latencies();
        results_.write_ms = store_.write_latencies();
        results_.store_bytes_written = store_.bytes_written();
        // Tasks that never completed within the drain window do not carry
        // valid timings; exclude them from the distributions.
        for (TaskOutcome& task : results_.tasks) {
            if (task.reply == 0) {
                task.aborted = true;
            }
        }
    }

    cluster::GpuServer&
    add_server()
    {
        cluster::GpuServer& server = cluster_.add_server();
        results_.provisioned_gpus.record(
            simulation_.now(), static_cast<double>(cluster_.total_gpus()));
        return server;
    }

    void
    remove_server(cluster::ServerId id)
    {
        cluster_.remove_server(id);
        results_.provisioned_gpus.record(
            simulation_.now(), static_cast<double>(cluster_.total_gpus()));
    }

    /** Provision one server asynchronously; @p on_ready fires once up. */
    void
    provision_server(std::function<void(cluster::ServerId)> on_ready)
    {
        ++provisioning_;
        const sim::Time delay = sample(config_.server_provision_min,
                                       config_.server_provision_max);
        simulation_.schedule_after(
            delay, [this, on_ready = std::move(on_ready)] {
                --provisioning_;
                cluster::GpuServer& server = add_server();
                if (on_ready) {
                    on_ready(server.id());
                }
            });
    }

    void
    record_commit(std::int32_t gpus)
    {
        committed_deltas_.emplace_back(simulation_.now(),
                                       static_cast<double>(gpus));
    }

    void
    record_release(std::int32_t gpus)
    {
        committed_deltas_.emplace_back(simulation_.now(),
                                       -static_cast<double>(gpus));
    }

    sim::Time
    sample(sim::Time lo, sim::Time hi)
    {
        return hi <= lo ? lo : lo + rng_.uniform_int(0, hi - lo);
    }

    /** One-way client->server request overhead. */
    sim::Time
    request_hops()
    {
        return sample(config_.hops.client_to_gs_min,
                      config_.hops.client_to_gs_max) +
               sample(config_.hops.gs_to_ls_min, config_.hops.gs_to_ls_max) +
               sample(config_.hops.ls_to_replica_min,
                      config_.hops.ls_to_replica_max);
    }

    /** Read the session's model + dataset from the store; @p done fires
     *  when both complete (the baselines' warm-up I/O). */
    void
    load_artifacts(const workload::SessionSpec& session,
                   std::function<void()> done)
    {
        auto remaining = std::make_shared<int>(2);
        auto fire = [remaining, done = std::move(done)] {
            if (--*remaining == 0) {
                done();
            }
        };
        store_.read("model/" + session.model,
                    [fire](const storage::ReadResult&) { fire(); });
        store_.read("dataset/" + session.dataset,
                    [fire](const storage::ReadResult&) { fire(); });
    }

    /** Write back the updated model parameters (post-processing I/O). */
    void
    writeback_model(const workload::SessionSpec& session,
                    std::function<void()> done)
    {
        const auto model = nblang::find_model(session.model);
        store_.write("model/" + session.model + "/session-" +
                         std::to_string(session.id),
                     model ? model->param_bytes : 100ULL << 20,
                     [done = std::move(done)](sim::Time) {
                         if (done) {
                             done();
                         }
                     });
    }

    TaskOutcome&
    new_outcome(const workload::SessionSpec& session,
                const workload::CellTask& task)
    {
        results_.tasks.push_back(TaskOutcome{});
        TaskOutcome& outcome = results_.tasks.back();
        outcome.session = session.id;
        outcome.seq = task.seq;
        outcome.is_gpu = task.is_gpu;
        outcome.gpus = session.resources.gpus;
        outcome.submit = task.submit_time;
        return outcome;
    }

    Policy policy_;
    const workload::Trace& trace_;
    sched::SchedulerConfig config_;
    sim::Simulation simulation_;
    sim::Rng rng_;
    storage::DataStore store_;
    cluster::Cluster cluster_;
    ExperimentResults results_;
    std::vector<std::pair<sim::Time, double>> committed_deltas_;
    std::int32_t provisioning_ = 0;
};

/* ------------------------------ Reservation --------------------------- */

class ReservationEngine : public BaselineEngine
{
  public:
    using BaselineEngine::BaselineEngine;

  private:
    struct SessionState
    {
        cluster::ServerId server = cluster::kNoServer;
        sim::Time ready_at = 0;
        sim::Time prev_reply = 0;
        bool placed = false;
    };

    void
    on_session_start(const workload::SessionSpec& session) override
    {
        SessionState& state = sessions_[session.id];
        // Find (or provision) a server and bind the GPUs for the whole
        // session lifetime.
        for (const auto& [id, server] : cluster_.servers()) {
            if (server->commit(session.resources)) {
                attach(session, state, id);
                return;
            }
        }
        provision_server([this, &session](cluster::ServerId id) {
            SessionState& st = sessions_[session.id];
            cluster::GpuServer* server = cluster_.find(id);
            if (server != nullptr && server->commit(session.resources)) {
                attach(session, st, id);
            }
        });
    }

    void
    attach(const workload::SessionSpec& session, SessionState& state,
           cluster::ServerId id)
    {
        state.server = id;
        state.placed = true;
        record_commit(session.resources.gpus);
        // Container cold start plus the initial model/dataset download.
        const sim::Time cold = sample(config_.timings.cold_start_min,
                                      config_.timings.cold_start_max);
        const sim::Time start = simulation_.now();
        state.ready_at = start + cold;
        simulation_.schedule_after(cold, [this, &session] {
            load_artifacts(session, [this, &session] {
                sessions_[session.id].ready_at = simulation_.now();
            });
        });
    }

    void
    on_session_end(const workload::SessionSpec& session) override
    {
        SessionState& state = sessions_[session.id];
        if (!state.placed) {
            return;
        }
        record_release(session.resources.gpus);
        if (cluster::GpuServer* server = cluster_.find(state.server)) {
            server->release(session.resources);
            if (server->committed_gpus() == 0) {
                remove_server(state.server);
            }
        }
        state.placed = false;
    }

    void
    on_task(const workload::SessionSpec& session,
            const workload::CellTask& task) override
    {
        new_outcome(session, task);
        const std::size_t index = results_.tasks.size() - 1;
        SessionState& state = sessions_[session.id];
        // GPUs stay bound: the cell starts as soon as the kernel is free.
        const sim::Time request_ready =
            task.submit_time + request_hops() +
            sample(10 * sim::kMillisecond, 50 * sim::kMillisecond);
        const sim::Time start = std::max(
            {request_ready, state.ready_at, state.prev_reply});
        const sim::Time end = start + task.duration;
        state.prev_reply = end;
        simulation_.schedule_at(end, [this, index, &session, start, end] {
            // Persist updated state before replying (Fig. 16, step 9).
            writeback_model(session, [this, index, start, end] {
                TaskOutcome& done = results_.tasks[index];
                done.exec_start = start;
                done.exec_end = end;
                done.reply = simulation_.now();
                done.replica_replied = end;
            });
        });
    }

    std::map<workload::SessionId, SessionState> sessions_;
};

/* ----------------------------- Batch and LCP --------------------------- */

/**
 * The two FCFS queue baselines. Every cell waits in one queue for a
 * server that can host it, runs in a container with mandatory model +
 * dataset I/O around it, and releases its GPUs when it replies; idle
 * servers are released after a timeout (keeping one). The policy sets
 * the rest:
 *
 *  - LCP keeps `kLcpWarmPerServer` warm containers per server, prefers
 *    a server with a warm one, and returns the container to the pool
 *    after the task; idle release after `kLcpIdleRelease`.
 *  - Batch has no pool: every task cold-starts a container that
 *    terminates with it; idle release after `kBatchIdleRelease`.
 */
class QueueEngine : public BaselineEngine
{
  public:
    QueueEngine(Policy policy, const workload::Trace& trace,
                const sched::SchedulerConfig& config, std::uint64_t seed)
        : BaselineEngine(policy, trace, config, seed),
          pooled_(policy == Policy::kNotebookOSLCP),
          idle_release_(pooled_ ? kLcpIdleRelease : kBatchIdleRelease)
    {
        warm_up_server(add_server().id());  // minimal standing capacity
        schedule_reaper();
    }

  private:
    struct QueuedTask
    {
        const workload::SessionSpec* session;
        const workload::CellTask* task;
        std::size_t outcome_index;
    };

    void on_session_start(const workload::SessionSpec&) override {}
    void on_session_end(const workload::SessionSpec&) override {}

    void
    on_task(const workload::SessionSpec& session,
            const workload::CellTask& task) override
    {
        new_outcome(session, task);
        queue_.push_back(QueuedTask{&session, &task,
                                    results_.tasks.size() - 1});
        dispatch();
    }

    void
    warm_up_server(cluster::ServerId id)
    {
        // Fill the server's share of the warm-container pool.
        const std::int32_t warm = pooled_ ? kLcpWarmPerServer : 0;
        for (std::int32_t i = 0; i < warm; ++i) {
            const sim::Time cold = sample(config_.timings.cold_start_min,
                                          config_.timings.cold_start_max);
            simulation_.schedule_after(cold, [this, id] {
                if (cluster_.find(id) != nullptr) {
                    warm_[id] += 1;
                    dispatch();
                }
            });
        }
    }

    /** Strict FCFS: the head blocks until some server can host it. */
    void
    dispatch()
    {
        while (!queue_.empty()) {
            const QueuedTask next = queue_.front();
            // Prefer a server with both a warm container and free GPUs.
            cluster::ServerId warm_host = cluster::kNoServer;
            cluster::ServerId any_host = cluster::kNoServer;
            for (const auto& [id, server] : cluster_.servers()) {
                if (!server->can_commit(next.session->resources)) {
                    continue;
                }
                if (warm_[id] > 0) {
                    warm_host = id;
                    break;
                }
                if (any_host == cluster::kNoServer) {
                    any_host = id;
                }
            }
            if (warm_host == cluster::kNoServer &&
                any_host == cluster::kNoServer) {
                if (provisioning_ == 0) {
                    provision_server([this](cluster::ServerId id) {
                        warm_up_server(id);
                        dispatch();
                    });
                }
                return;
            }
            queue_.pop_front();
            const bool from_pool = warm_host != cluster::kNoServer;
            const cluster::ServerId host =
                from_pool ? warm_host : any_host;
            if (from_pool) {
                warm_[host] -= 1;
            }
            run_task(next, host, from_pool);
        }
    }

    void
    run_task(const QueuedTask& queued, cluster::ServerId host_id,
             bool from_pool)
    {
        cluster_.find(host_id)->commit(queued.session->resources);
        record_commit(queued.session->resources.gpus);
        busy_servers_[host_id] += 1;
        // A pooled container is assigned; otherwise one is provisioned on
        // demand (the cold start).
        const sim::Time setup =
            from_pool ? config_.timings.prewarm_assign
                      : sample(config_.timings.cold_start_min,
                               config_.timings.cold_start_max);
        const std::size_t index = queued.outcome_index;
        const workload::SessionSpec* session = queued.session;
        const workload::CellTask* task = queued.task;
        simulation_.schedule_after(setup, [this, index, session, task,
                                           host_id] {
            // The warming-up operation: download model + dataset (§5.3.3:
            // this is what stretches LCP's TCT).
            load_artifacts(*session, [this, index, session, task, host_id] {
                TaskOutcome& outcome = results_.tasks[index];
                outcome.exec_start = simulation_.now();
                simulation_.schedule_after(
                    task->duration, [this, index, session, host_id] {
                        TaskOutcome& done = results_.tasks[index];
                        done.exec_end = simulation_.now();
                        // Mandatory post-processing I/O before the reply.
                        writeback_model(*session, [this, index, session,
                                                   host_id] {
                            TaskOutcome& finished = results_.tasks[index];
                            finished.reply = simulation_.now();
                            finished.replica_replied = finished.reply;
                            record_release(session->resources.gpus);
                            if (cluster::GpuServer* server =
                                    cluster_.find(host_id)) {
                                server->release(session->resources);
                            }
                            busy_servers_[host_id] -= 1;
                            last_activity_[host_id] = simulation_.now();
                            // LCP's container returns to the pool; a
                            // Batch container terminates.
                            if (pooled_) {
                                warm_[host_id] += 1;
                            }
                            dispatch();
                        });
                    });
            });
        });
    }

    void
    schedule_reaper()
    {
        simulation_.schedule_after(idle_release_, [this] {
            // Release servers idle past the timeout (keep one).
            std::vector<cluster::ServerId> victims;
            for (const auto& [id, server] : cluster_.servers()) {
                if (cluster_.size() - victims.size() <= 1) {
                    break;
                }
                const bool busy = busy_servers_[id] > 0;
                const sim::Time last = last_activity_.count(id) > 0
                                           ? last_activity_[id]
                                           : 0;
                if (!busy && simulation_.now() - last >= idle_release_) {
                    victims.push_back(id);
                }
            }
            for (const cluster::ServerId id : victims) {
                remove_server(id);
                warm_.erase(id);
                busy_servers_.erase(id);
                last_activity_.erase(id);
            }
            schedule_reaper();
        });
    }

    /** True for LCP, whose containers come from and return to warm_. */
    const bool pooled_;
    const sim::Time idle_release_;
    std::deque<QueuedTask> queue_;
    std::map<cluster::ServerId, std::int32_t> warm_;
    std::map<cluster::ServerId, int> busy_servers_;
    std::map<cluster::ServerId, sim::Time> last_activity_;
};

}  // namespace

ExperimentResults
run_reservation(const workload::Trace& trace,
                const sched::SchedulerConfig& config, std::uint64_t seed)
{
    ReservationEngine engine(Policy::kReservation, trace, config, seed);
    return engine.run();
}

ExperimentResults
run_batch(const workload::Trace& trace, const sched::SchedulerConfig& config,
          std::uint64_t seed)
{
    QueueEngine engine(Policy::kBatch, trace, config, seed);
    return engine.run();
}

ExperimentResults
run_lcp(const workload::Trace& trace, const sched::SchedulerConfig& config,
        std::uint64_t seed)
{
    QueueEngine engine(Policy::kNotebookOSLCP, trace, config, seed);
    return engine.run();
}

}  // namespace nbos::core
