/**
 * @file
 * The fast analytic NotebookOS engine used for the 90-day simulation
 * studies (§5.5), mirroring the paper's companion simulator.
 *
 * It models the same scheduling decisions as the prototype — replicated
 * kernels subscribed on three least-loaded servers under the dynamic SR
 * cap, dynamic GPU binding, migration on placement failure, pre-warmed
 * containers, and the §3.4.2 auto-scaler — but samples the latency of the
 * consensus protocol instead of exchanging per-message Raft traffic, so a
 * 90-day trace runs in seconds.
 *
 * The engine body lives in FastEngineShard (fastsim_engine.hpp); the fast
 * driver (fastsim_driver.cpp) runs one or more shards through the shared
 * windowed driver loop and merges their results.
 */
#include <algorithm>
#include <cassert>
#include <string>

#include "core/fastsim_engine.hpp"
#include "sched/autoscaler.hpp"

namespace nbos::core {

FastEngineShard::FastEngineShard(const PlatformConfig& config,
                                 sim::Time makespan, std::uint64_t seed,
                                 sched::ShardIdentity identity,
                                 std::vector<TaskOutcome>& tasks)
    : config_(config),
      makespan_(makespan),
      identity_(identity),
      // Recycle simulation buffers across shard runs: a sweep constructs
      // one shard per spec and the cold-page faults dominated re-runs.
      simulation_(sim::Simulation::Options{
          true, &sim::SimMemoryPool::global()}),
      rng_(seed),
      store_(simulation_, config.scheduler.store_backend,
             sim::Rng(seed ^ 0x2545f491)),
      cluster_(config.scheduler.server_shape),
      prewarm_(config.scheduler.prewarm_per_server),
      track_window_load_(config.scheduler.routing ==
                         sched::RoutingPolicyKind::kRebalance),
      tasks_(tasks)
{
}

void
FastEngineShard::start()
{
    const std::int32_t initial =
        identity_.share_of(config_.scheduler.initial_servers);
    for (std::int32_t i = 0; i < initial; ++i) {
        add_server();
    }
    schedule_tick();
}

void
FastEngineShard::advance(sim::Time stop)
{
    const sim::Time window = config_.scheduler.autoscale_interval;
    while (next_window_ <= stop) {
        if (queued_.empty() || queued_.front().time > stop) {
            simulation_.run_until(stop);
            next_window_ = stop + window;
            return;
        }
        // Windows with nothing to inject run as one stretch, up to the
        // start of the window that covers the next queued event.
        const sim::Time due =
            std::max(next_window_,
                     (queued_.front().time + window - 1) / window * window);
        simulation_.run_until(due - window);
        while (!queued_.empty() && queued_.front().time <= due) {
            inject(queued_.front());
            queued_.pop_front();
        }
        simulation_.run_until(due);
        next_window_ = due + window;
    }
}

void
FastEngineShard::run_until(sim::Time t)
{
    simulation_.run_until(t);
}

ExperimentResults
FastEngineShard::finish()
{
    // No harvest reads the last window's load: drop it, so a row is left
    // only for a session that is alive, waiting for placement, or has a
    // cell outlasting the drain.
    for (const workload::SessionId id : window_active_) {
        FastKernel& kernel = kernel_at(id);
        kernel.window_tasks = 0;
        retire_if_done(id, kernel);
    }
    window_active_.clear();
#ifndef NDEBUG
    for (std::int32_t row = 0;
         row < static_cast<std::int32_t>(kernels_.size()); ++row) {
        const FastKernel& kernel = kernels_.cold_at(row);
        assert(kernel.alive || kernel.inflight > 0 ||
               pending_kernels_.count(kernels_.id_at(row)) > 0);
    }
#endif
    results_.read_ms = store_.read_latencies();
    results_.write_ms = store_.write_latencies();
    results_.store_bytes_written = store_.bytes_written();
    return std::move(results_);
}

std::uint64_t
FastEngineShard::events_executed() const
{
    return simulation_.events_executed();
}

void
FastEngineShard::add_server()
{
    cluster::GpuServer& server = cluster_.add_server();
    prewarm_.register_server(server.id());
    // Fast mode refills the pool instantly on the periodic tick; the
    // initial fill is immediate.
    for (std::int32_t i = 0; i < config_.scheduler.prewarm_per_server;
         ++i) {
        prewarm_.begin_refill(server.id());
        prewarm_.complete_refill(server.id());
    }
    record_fleet_size();
}

void
FastEngineShard::record_fleet_size()
{
    // (time, change) deltas: summing them across shards rebuilds the
    // fleet-wide step function deterministically.
    const double total = static_cast<double>(cluster_.total_gpus());
    gpu_deltas_.emplace_back(simulation_.now(), total - last_total_gpus_);
    last_total_gpus_ = total;
}

void
FastEngineShard::provision_server()
{
    ++provisioning_;
    results_.sched_stats.scale_outs += 1;
    record_event(sched::SchedulerEvent::Kind::kScaleOut);
    simulation_.schedule_after(
        sample(config_.scheduler.server_provision_min,
               config_.scheduler.server_provision_max),
        [this] {
            --provisioning_;
            add_server();
            place_pending_kernels();
        });
}

sim::Time
FastEngineShard::sample(sim::Time lo, sim::Time hi)
{
    return hi <= lo ? lo : lo + rng_.uniform_int(0, hi - lo);
}

void
FastEngineShard::record_event(sched::SchedulerEvent::Kind kind)
{
    results_.events.push_back(sched::SchedulerEvent{kind, simulation_.now()});
}

void
FastEngineShard::start_session(const workload::SessionSpec& session)
{
    FastKernel& kernel = kernel_at(session.id);
    kernel.session = session.id;
    kernel.spec = session.resources;
    place_kernel(session.id);
}

void
FastEngineShard::place_kernel(workload::SessionId id)
{
    FastKernel& kernel = kernel_at(id);
    const auto replicas = static_cast<std::size_t>(
        config_.scheduler.kernel.replica_count);
    const auto servers = placement_.pick(
        cluster_, kernel.spec, replicas,
        config_.scheduler.kernel.replica_count);
    if (servers.size() < replicas) {
        pending_kernels_.insert(id);
        if (provisioning_ == 0) {
            for (std::size_t i = servers.size(); i < replicas; ++i) {
                provision_server();
            }
        }
        return;
    }
    kernel.servers = servers;
    kernel.alive = true;
    for (const cluster::ServerId server_id : servers) {
        cluster_.find(server_id)->subscribe(kernel.spec);
    }
    // Count each session's kernel exactly once: a session adopted from
    // another shard arrives with counted set, so the merged
    // kernels_created total is independent of the routing policy.
    if (!kernel.counted) {
        kernel.counted = true;
        results_.sched_stats.kernels_created += 1;
        record_event(sched::SchedulerEvent::Kind::kKernelCreated);
    }
}

void
FastEngineShard::place_pending_kernels()
{
    // Kernels that still do not fit go back into the emptied set.
    std::set<workload::SessionId> pending;
    pending.swap(pending_kernels_);
    for (const workload::SessionId id : pending) {
        place_kernel(id);
    }
}

void
FastEngineShard::end_session(const workload::SessionSpec& session)
{
    FastKernel& kernel = kernel_at(session.id);
    if (kernel.alive) {
        for (const cluster::ServerId server_id : kernel.servers) {
            if (cluster::GpuServer* server = cluster_.find(server_id)) {
                server->unsubscribe(kernel.spec);
            }
        }
        kernel.alive = false;
    } else {
        pending_kernels_.erase(session.id);
    }
    retire_if_done(session.id, kernel);
}

void
FastEngineShard::run_task(std::size_t index,
                          const workload::SessionSpec& session,
                          const workload::CellTask& task)
{
    FastKernel& kernel = kernel_at(session.id);
    if (track_window_load_) {
        if (kernel.window_tasks == 0) {
            window_active_.push_back(session.id);
        }
        ++kernel.window_tasks;
    }
    if (!kernel.alive) {
        // Kernel still waiting for placement: treat as queued until
        // the next tick re-attempts; abort for simplicity if it never
        // placed (counted, excluded from latency stats). A cell of an
        // ended session lands here too, on a row that goes again.
        tasks_[index].aborted = true;
        retire_if_done(session.id, kernel);
        return;
    }
    if (!task.is_gpu) {
        const sim::Time start = task.submit_time + 3 * sim::kMillisecond;
        complete(index, start, start + task.duration, 0, session.id);
        return;
    }
    // A GPU cell is now in flight (immediately or through a migration
    // chain); the session is pinned to this shard until it completes.
    kernel.inflight += 1;
    // Overheads along the critical path: hops + executor election +
    // GPU binding (sampled rather than message-by-message).
    const sim::Time overhead =
        sample(2 * sim::kMillisecond, 5 * sim::kMillisecond) +
        sample(10 * sim::kMillisecond, 60 * sim::kMillisecond) +
        sample(cluster::kContainerTimings.gpu_bind_min,
               cluster::kContainerTimings.gpu_bind_max);

    // Executor choice: prefer the previous executor's server.
    cluster::ServerId chosen = cluster::kNoServer;
    if (kernel.last_executor != cluster::kNoServer) {
        cluster::GpuServer* server = cluster_.find(kernel.last_executor);
        if (server != nullptr && server->can_commit(kernel.spec)) {
            chosen = kernel.last_executor;
        }
    }
    if (chosen == cluster::kNoServer) {
        std::int32_t best_idle = -1;
        for (const cluster::ServerId id : kernel.servers) {
            cluster::GpuServer* server = cluster_.find(id);
            if (server != nullptr && server->can_commit(kernel.spec) &&
                server->idle_gpus() > best_idle) {
                best_idle = server->idle_gpus();
                chosen = id;
            }
        }
    }
    if (chosen != cluster::kNoServer) {
        results_.sched_stats.immediate_commits += 1;
        if (chosen == kernel.last_executor) {
            results_.sched_stats.executor_reuses += 1;
        }
        results_.sched_stats.gpu_executions += 1;
        begin_execution(index, session.id, chosen,
                        task.submit_time + overhead, task.duration);
        return;
    }
    // No replica has GPUs: failed election -> migration (§3.2.3).
    results_.sched_stats.gpu_executions += 1;
    results_.sched_stats.elections_failed += 1;
    migrate_and_run(index, session.id, task.duration, 0);
}

void
FastEngineShard::begin_execution(std::size_t index,
                                 workload::SessionId session_id,
                                 cluster::ServerId server_id,
                                 sim::Time start, sim::Time duration)
{
    FastKernel& kernel = kernel_at(session_id);
    if (!kernel.alive) {
        // The session ended during the cell's migration: its replicas are
        // unsubscribed, so the cell ends aborted, as the prototype drops
        // the cells of a stopped kernel.
        abort_cell(index, session_id, kernel);
        return;
    }
    cluster::GpuServer* server = cluster_.find(server_id);
    if (server == nullptr || !server->commit(kernel.spec)) {
        // Raced out; go through migration.
        results_.sched_stats.elections_failed += 1;
        migrate_and_run(index, session_id, duration, 0);
        return;
    }
    kernel.last_executor = server_id;
    kernel.executions += 1;
    const sim::Time end = std::max(start, simulation_.now()) + duration;
    simulation_.schedule_at(end, [this, index, session_id, server_id,
                                  start, end] {
        if (cluster::GpuServer* host = cluster_.find(server_id)) {
            host->release(kernel_at(session_id).spec);
        }
        complete(index, start, end, 0, session_id);
    });
}

void
FastEngineShard::migrate_and_run(std::size_t index,
                                 workload::SessionId session_id,
                                 sim::Time duration, int retries)
{
    FastKernel& kernel = kernel_at(session_id);
    if (!kernel.alive) {
        // The session ended while the cell waited for a server.
        abort_cell(index, session_id, kernel);
        return;
    }
    const cluster::ResourceSpec& spec = kernel.spec;
    const cluster::ServerId target =
        sched::pick_target(cluster_, kernel.servers,
                           [&spec](const cluster::GpuServer& server) {
                               return server.can_commit(spec);
                           });
    if (target == cluster::kNoServer) {
        if (retries >= config_.scheduler.migration_max_retries &&
            provisioning_ == 0) {
            results_.sched_stats.migrations_aborted += 1;
            abort_cell(index, session_id, kernel);
            return;
        }
        if (provisioning_ == 0) {
            provision_server();
        }
        simulation_.schedule_after(
            config_.scheduler.migration_retry,
            [this, index, session_id, duration, retries] {
                migrate_and_run(index, session_id, duration, retries + 1);
            });
        return;
    }
    results_.sched_stats.migrations += 1;
    record_event(sched::SchedulerEvent::Kind::kMigration);

    cluster::ServerId& victim =
        kernel.servers[sched::pick_victim(cluster_, kernel.servers)];
    if (cluster::GpuServer* old_server = cluster_.find(victim)) {
        old_server->unsubscribe(kernel.spec);
    }
    victim = target;
    cluster_.find(target)->subscribe(kernel.spec);

    // Migration latency: checkpoint write + container + state read +
    // Raft reconfiguration.
    const sim::Time container_delay =
        prewarm_.acquire(target)
            ? (results_.sched_stats.prewarm_hits += 1,
               cluster::kContainerTimings.prewarm_assign)
            : (results_.sched_stats.cold_starts += 1,
               sample(cluster::kContainerTimings.cold_start_min,
                      cluster::kContainerTimings.cold_start_max));
    const std::string key =
        "kernel/" + std::to_string(session_id) + "/checkpoint";
    store_.write(key, 8ULL << 20, [this, index, session_id, target,
                                   container_delay, key, duration](
                                      sim::Time) {
        simulation_.schedule_after(container_delay, [this, index,
                                                     session_id, target,
                                                     key, duration] {
            store_.read(key, [this, index, session_id, target,
                              duration](const storage::ReadResult&) {
                const sim::Time reconfig =
                    sample(500 * sim::kMillisecond, 1500 *
                                                        sim::kMillisecond);
                simulation_.schedule_after(
                    reconfig, [this, index, session_id, target,
                               duration] {
                        tasks_[index].migrated = true;
                        begin_execution(
                            index, session_id, target,
                            simulation_.now() +
                                sample(cluster::kContainerTimings.gpu_bind_min,
                                       cluster::kContainerTimings.gpu_bind_max),
                            duration);
                    });
            });
        });
    });
}

void
FastEngineShard::abort_cell(std::size_t index,
                            workload::SessionId session_id,
                            FastKernel& kernel)
{
    tasks_[index].aborted = true;
    if (kernel.inflight > 0) {
        kernel.inflight -= 1;
    }
    retire_if_done(session_id, kernel);
}

void
FastEngineShard::complete(std::size_t index, sim::Time start, sim::Time end,
                          sim::Time extra_reply,
                          workload::SessionId session_id)
{
    TaskOutcome& outcome = tasks_[index];
    outcome.exec_start = start;
    outcome.exec_end = end;
    outcome.reply = end + extra_reply +
                    sample(2 * sim::kMillisecond, 6 * sim::kMillisecond);
    results_.sched_stats.executions_completed += 1;
    if (outcome.is_gpu) {
        FastKernel& kernel = kernel_at(session_id);
        if (kernel.inflight > 0) {
            kernel.inflight -= 1;
        }
        retire_if_done(session_id, kernel);
    }
}

void
FastEngineShard::retire_if_done(workload::SessionId id,
                                const FastKernel& kernel)
{
    if (kernel.alive || kernel.inflight > 0 || kernel.window_tasks > 0 ||
        pending_kernels_.count(id) > 0) {
        return;
    }
    kernels_.erase(id);
}

void
FastEngineShard::schedule_tick()
{
    simulation_.schedule_after(
        config_.scheduler.autoscale_interval, [this] {
            tick();
            if (simulation_.now() < makespan_) {
                schedule_tick();
            }
        });
}

void
FastEngineShard::tick()
{
    // Auto-scaler (§3.4.2). SchedulerConfig::enable_autoscaler freezes
    // the fleet (no scale decisions) without disabling placement retries
    // or the timeline samples — the scale bench and the shard-count
    // invariance property both rely on a frozen fleet.
    if (config_.scheduler.enable_autoscaler) {
        sched::AutoScalerInputs inputs;
        inputs.committed_gpus = cluster_.total_committed_gpus();
        inputs.total_gpus = cluster_.total_gpus();
        inputs.gpus_per_server = config_.scheduler.server_shape.gpus;
        inputs.current_servers =
            static_cast<std::int32_t>(cluster_.size()) + provisioning_;
        std::vector<cluster::ServerId> idle;
        for (const auto& [id, server] : cluster_.servers()) {
            if (server->subscribed_gpus() == 0 &&
                server->committed_gpus() == 0) {
                idle.push_back(id);
            }
        }
        inputs.idle_servers = static_cast<std::int32_t>(idle.size());
        sched::AutoScaleDecision decision = sched::evaluate_autoscaler(
            inputs, config_.scheduler.autoscaler);
        if (!pending_kernels_.empty() || provisioning_ > 0) {
            decision.remove_servers = 0;
        }
        for (std::int32_t i = 0; i < decision.add_servers; ++i) {
            provision_server();
        }
        for (std::int32_t i = 0;
             i < decision.remove_servers &&
             i < static_cast<std::int32_t>(idle.size());
             ++i) {
            prewarm_.unregister_server(idle[i]);
            cluster_.remove_server(idle[i]);
            results_.sched_stats.scale_ins += 1;
            record_event(sched::SchedulerEvent::Kind::kScaleIn);
            record_fleet_size();
        }
    }
    // Instant pre-warm refills (their cold start is amortized by the
    // tick interval in fast mode).
    for (const auto& [id, server] : cluster_.servers()) {
        while (prewarm_.deficit(id) > 0) {
            prewarm_.begin_refill(id);
            prewarm_.complete_refill(id);
        }
    }
    place_pending_kernels();
    // Raw fleet signals: every shard ticks on the same (autoscale_interval,
    // makespan) grid, so the driver merges samples positionally into the
    // fleet-wide subscription ratio.
    tick_samples_.push_back(FastTickSample{simulation_.now(),
                                           cluster_.total_subscribed_gpus(),
                                           cluster_.total_gpus()});
}

void
FastEngineShard::inject(const Injection& event)
{
    const workload::SessionSpec* session = event.session;
    switch (event.kind) {
        case Injection::kStart:
            simulation_.schedule_at(event.time, [this, session] {
                start_session(*session);
            });
            break;
        case Injection::kEnd:
            simulation_.schedule_at(event.time, [this, session] {
                end_session(*session);
            });
            break;
        case Injection::kTask: {
            const workload::CellTask* task = event.task;
            const std::size_t index = event.row;
            simulation_.schedule_at(event.time,
                                    [this, index, session, task] {
                                        run_task(index, *session, *task);
                                    });
            break;
        }
    }
}

bool
FastEngineShard::extract_session(workload::SessionId id, SessionExtract& out)
{
    const std::int32_t row = kernels_.find(id);
    if (row < 0) {
        return false;
    }
    FastKernel& kernel = kernels_.cold_at(row);
    if (!kernel.alive || kernel.inflight != 0) {
        return false;
    }
    out.session = id;
    out.spec = kernel.spec;
    out.executions = kernel.executions;
    for (const cluster::ServerId server_id : kernel.servers) {
        if (cluster::GpuServer* server = cluster_.find(server_id)) {
            server->unsubscribe(kernel.spec);
        }
    }
    kernels_.erase(id);
    return true;
}

void
FastEngineShard::adopt_session(const SessionExtract& extract)
{
    FastKernel& kernel = kernel_at(extract.session);
    kernel.session = extract.session;
    kernel.spec = extract.spec;
    kernel.executions = extract.executions;
    kernel.servers.clear();
    kernel.last_executor = cluster::kNoServer;
    kernel.alive = false;
    kernel.inflight = 0;
    kernel.window_tasks = 0;
    // Already counted on the shard that first placed it.
    kernel.counted = true;
    place_kernel(extract.session);
}

void
FastEngineShard::harvest_window_load(sched::ShardLoad& load,
                                     std::vector<sched::SessionLoad>&
                                         sessions)
{
    load.weight = 0;
    sessions.clear();
    // Canonical id order: the merged per-shard lists (and therefore the
    // rebalance plan) are a pure function of session state, independent
    // of the event interleaving that filled window_active_.
    std::sort(window_active_.begin(), window_active_.end());
    sessions.reserve(window_active_.size());
    for (const workload::SessionId id : window_active_) {
        FastKernel& kernel = kernel_at(id);
        if (kernel.window_tasks == 0) {
            continue;
        }
        load.weight += kernel.window_tasks;
        sessions.push_back(sched::SessionLoad{
            id, kernel.window_tasks, kernel.alive && kernel.inflight == 0});
        kernel.window_tasks = 0;
        retire_if_done(id, kernel);
    }
    window_active_.clear();
}

}  // namespace nbos::core
