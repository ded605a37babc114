#include "sched/shard.hpp"

#include <algorithm>
#include <cassert>

namespace nbos::sched {

namespace {

/** Checkpoint object key for a kernel (§3.2.3 migration persistence). */
std::string
checkpoint_key(cluster::KernelId kernel_id)
{
    return "kernel/" + std::to_string(kernel_id) + "/checkpoint";
}

/** Approximate checkpoint footprint: metadata plus large-object bytes. */
std::uint64_t
checkpoint_bytes(const nblang::Namespace& ns)
{
    std::uint64_t total = 1024;
    for (const auto& [name, value] : ns) {
        total += 128 + value.text.size();
        // Large objects referenced by the checkpoint are already in the
        // data store; the checkpoint itself carries small values inline.
        if (value.size_bytes < 1024ULL * 1024ULL) {
            total += value.size_bytes;
        }
    }
    return total;
}

/** How often a wait on a Raft group checks again. */
constexpr sim::Time kPollInterval = 200 * sim::kMillisecond;

/** Processing time of a request at the Global and at a Local Scheduler
 *  (Fig. 15 steps). */
constexpr sim::Time kGsProcessing = 1 * sim::kMillisecond;
constexpr sim::Time kLsProcessing = 300 * sim::kMicrosecond;

}  // namespace

SchedulerShard::SchedulerShard(sim::Simulation& simulation,
                               SchedulerConfig config, std::uint64_t seed,
                               ShardIdentity identity)
    : simulation_(simulation),
      config_(config),
      identity_(identity),
      seed_(seed),
      rng_(seed),
      network_(simulation, sim::Rng(seed ^ 0x5bd1e995)),
      cluster_(config.server_shape),
      prewarm_(config.prewarm_per_server),
      store_(std::make_unique<storage::DataStore>(
          simulation, config.store_backend, sim::Rng(seed ^ 0x9e3779b9))),
      // Disjoint kernel-id progression per shard: index + 1, stepping by
      // the shard count, so ids are globally unique. {0, 1} yields 1, 2,
      // 3, ... — the monolithic scheduler's sequence.
      next_kernel_id_(identity.index + 1)
{
    // Keep the kernel-level replica count and the scheduler's R in sync.
    assert(config_.kernel.replica_count >= 1);
    assert(identity_.count >= 1 && identity_.index >= 0 &&
           identity_.index < identity_.count);
}

SchedulerShard::~SchedulerShard()
{
    // RECORD mode: deposit the faults this shard actually injected so the
    // caller can serialize and later replay the full schedule file.
    if (chaos_ != nullptr && config_.chaos.record != nullptr) {
        config_.chaos.record->put(identity_.index, chaos_->record());
    }
}

sim::Time
SchedulerShard::sample(sim::Time lo, sim::Time hi)
{
    if (hi <= lo) {
        return lo;
    }
    return lo + rng_.uniform_int(0, hi - lo);
}

void
SchedulerShard::record_event(SchedulerEvent::Kind kind)
{
    events_.push_back(SchedulerEvent{kind, simulation_.now()});
}

SchedulerShard::KernelRecord*
SchedulerShard::live_kernel(cluster::KernelId kernel_id)
{
    const auto it = kernels_.find(kernel_id);
    return it == kernels_.end() || !it->second.alive ? nullptr : &it->second;
}

kernel::KernelReplica*
SchedulerShard::first_live(const KernelRecord& record)
{
    for (const ReplicaSlot& slot : record.slots) {
        if (slot.alive && slot.replica) {
            return slot.replica.get();
        }
    }
    return nullptr;
}

raft::RaftNode*
SchedulerShard::leader(const KernelRecord& record)
{
    raft::RaftNode* found = nullptr;
    for (const ReplicaSlot& slot : record.slots) {
        if (slot.alive && slot.replica &&
            slot.replica->raft().role() == raft::Role::kLeader) {
            found = &slot.replica->raft();
        }
    }
    return found;
}

std::vector<cluster::ServerId>
SchedulerShard::live_servers(const KernelRecord& record)
{
    std::vector<cluster::ServerId> servers;
    servers.reserve(record.slots.size());
    for (const ReplicaSlot& slot : record.slots) {
        servers.push_back(slot.alive ? slot.server : cluster::kNoServer);
    }
    return servers;
}

void
SchedulerShard::reserve_container(KernelRecord& record, std::int32_t index,
                                  cluster::ServerId server)
{
    const cluster::ContainerId id = next_container_id_++;
    cluster_.find(server)->add_container(cluster::Container{id, server,
                                                            record.id});
    record.slots[index].container = id;
}

void
SchedulerShard::release_slot(KernelRecord& record, std::int32_t index)
{
    const ReplicaSlot& slot = record.slots[index];
    cluster::GpuServer* server = cluster_.find(slot.server);
    if (server != nullptr &&
        server->find_container(slot.container) != nullptr) {
        server->unsubscribe(record.spec);
        server->remove_container(slot.container);
    }
}

void
SchedulerShard::retire_replica(ReplicaSlot& slot)
{
    if (slot.replica) {
        slot.replica->stop();
        graveyard_.push_back(std::move(slot.replica));
    }
    slot.alive = false;
}

sim::Time
SchedulerShard::container_delay(cluster::ServerId server)
{
    if (prewarm_.acquire(server)) {
        ++stats_.prewarm_hits;
        return cluster::kContainerTimings.prewarm_assign;
    }
    ++stats_.cold_starts;
    return sample(cluster::kContainerTimings.cold_start_min,
                  cluster::kContainerTimings.cold_start_max);
}

void
SchedulerShard::poll(PollStep step, int tries)
{
    if (!step(tries)) {
        simulation_.schedule_after(
            kPollInterval, [this, step = std::move(step), tries]() mutable {
                poll(std::move(step), tries + 1);
            });
    }
}

void
SchedulerShard::start()
{
    if (started_) {
        return;
    }
    started_ = true;
    // The initial fleet exists from t=0 (experiments begin with a
    // cluster); a shard owns its round-robin share of the configured
    // servers (all of them for the monolithic identity {0, 1}).
    const std::int32_t initial =
        identity_.share_of(config_.initial_servers);
    for (std::int32_t i = 0; i < initial; ++i) {
        cluster::GpuServer& server = cluster_.add_server();
        prewarm_.register_server(server.id());
    }
    run_prewarmer();
    if (config_.enable_autoscaler) {
        simulation_.schedule_after(config_.autoscale_interval,
                                   [this] { run_autoscaler(); });
    }
    simulation_.schedule_after(config_.health_check_interval,
                               [this] { run_health_check(); });
    if (config_.chaos.enabled) {
        install_chaos();
    }
}

void
SchedulerShard::install_chaos()
{
    chaos_ = std::make_unique<chaos::ChaosController>(simulation_, network_);
    chaos::ChaosController::Hooks hooks;
    hooks.resolve_endpoint = [this](std::uint32_t slot) {
        return chaos_resolve_endpoint(slot);
    };
    hooks.crash_replica = [this](std::uint32_t slot) {
        return chaos_crash_replica(slot);
    };
    hooks.restart_replica = [this](std::uint32_t slot) {
        return chaos_restart_replica(slot);
    };
    chaos_->set_hooks(std::move(hooks));

    chaos::FaultPlan plan;
    if (config_.chaos.replay != nullptr) {
        // REPLAY: this shard's section of the schedule file, verbatim.
        const auto it = config_.chaos.replay->shards.find(identity_.index);
        if (it != config_.chaos.replay->shards.end()) {
            plan = it->second;
        }
    } else {
        // Generate from the chaos seed (or the shard seed), mixed with the
        // shard index so every shard draws an independent fault stream.
        const std::uint64_t base =
            config_.chaos.seed != 0 ? config_.chaos.seed : seed_;
        chaos::ChaosGenerator generator(
            base ^ (0x9e3779b97f4a7c15ULL *
                    (static_cast<std::uint64_t>(identity_.index) + 1)));
        plan = generator.generate(config_.chaos.options);
    }
    chaos_->install(plan);
}

std::vector<std::pair<cluster::KernelId, std::int32_t>>
SchedulerShard::chaos_live_replicas() const
{
    // Deterministic enumeration: kernels in id order (std::map), slots in
    // index order — identical on record and on replay of the same run.
    std::vector<std::pair<cluster::KernelId, std::int32_t>> live;
    for (const auto& [kernel_id, record] : kernels_) {
        if (!record.alive || !record.created || record.move) {
            continue;
        }
        for (std::size_t i = 0; i < record.slots.size(); ++i) {
            const ReplicaSlot& slot = record.slots[i];
            if (slot.alive && slot.replica && slot.replica->running()) {
                live.push_back({kernel_id, static_cast<std::int32_t>(i)});
            }
        }
    }
    return live;
}

net::NodeId
SchedulerShard::chaos_resolve_endpoint(std::uint32_t slot)
{
    const auto live = chaos_live_replicas();
    if (live.empty()) {
        return net::kNoNode;
    }
    const auto [kernel_id, index] = live[slot % live.size()];
    const auto it = kernels_.find(kernel_id);
    return it->second.slots[index].replica->raft().id();
}

bool
SchedulerShard::chaos_crash_replica(std::uint32_t slot)
{
    const auto live = chaos_live_replicas();
    if (live.empty()) {
        return false;
    }
    const auto [kernel_id, index] = live[slot % live.size()];
    chaos_downed_[slot] = {kernel_id, index};
    kernels_.at(kernel_id).slots[index].replica->stop();
    return true;
}

bool
SchedulerShard::chaos_restart_replica(std::uint32_t slot)
{
    const auto it = chaos_downed_.find(slot);
    if (it == chaos_downed_.end()) {
        return false;
    }
    const auto [kernel_id, index] = it->second;
    chaos_downed_.erase(it);
    KernelRecord* record = live_kernel(kernel_id);
    if (record == nullptr) {
        return false;
    }
    ReplicaSlot& slot_ref = record->slots[index];
    if (!slot_ref.alive || slot_ref.replica == nullptr ||
        slot_ref.replica->running()) {
        // The health checker found the crash first: the slot is marked
        // for a repair, or a move already put a new replica in it. Either
        // recovery is a legitimate outcome.
        return false;
    }
    slot_ref.replica->restart();
    return true;
}

double
SchedulerShard::cluster_sr() const
{
    return cluster_.cluster_subscription_ratio(
        config_.kernel.replica_count);
}

SchedulerShard::KernelRecord*
SchedulerShard::session_kernel(std::int64_t session)
{
    const auto it = sessions_.find(session);
    return it == sessions_.end() ? nullptr : &kernels_.at(it->second);
}

cluster::KernelId
SchedulerShard::kernel_of(std::int64_t session) const
{
    const auto it = sessions_.find(session);
    return it == sessions_.end() ? cluster::kNoKernel : it->second;
}

kernel::KernelReplica*
SchedulerShard::replica(std::int64_t session, std::int32_t index)
{
    const KernelRecord* record = session_kernel(session);
    if (record == nullptr || index < 0 ||
        static_cast<std::size_t>(index) >= record->slots.size()) {
        return nullptr;
    }
    return record->slots[index].replica.get();
}

std::vector<std::int32_t>
SchedulerShard::bound_devices(std::int64_t session, std::int32_t index)
{
    if (replica(session, index) == nullptr) {
        return {};
    }
    return session_kernel(session)->slots[index].bound_devices;
}

void
SchedulerShard::inject_replica_failure(std::int64_t session,
                                        std::int32_t index)
{
    if (kernel::KernelReplica* target = replica(session, index)) {
        target->stop();
    }
}

bool
SchedulerShard::settled() const
{
    if (replies_in_flight_ > 0 || servers_provisioning_ > 0) {
        return false;
    }
    // A kernel waiting for placement, or holding cells for its creation,
    // is alive and not yet created.
    for (const auto& [id, record] : kernels_) {
        if (record.alive && (!record.created || !record.pending.empty())) {
            return false;
        }
    }
    return true;
}

void
SchedulerShard::provision_server(SchedulerEvent::Kind reason)
{
    ++servers_provisioning_;
    record_event(reason);
    if (reason == SchedulerEvent::Kind::kScaleOut) {
        ++stats_.scale_outs;
    }
    const sim::Time delay =
        sample(config_.server_provision_min, config_.server_provision_max);
    simulation_.schedule_after(delay, [this] {
        --servers_provisioning_;
        cluster::GpuServer& server = cluster_.add_server();
        prewarm_.register_server(server.id());
        try_place_waiting_kernels();
    });
}

SchedulerShard::KernelRecord&
SchedulerShard::open_kernel(std::int64_t session,
                            const cluster::ResourceSpec& spec,
                            bool count_created)
{
    const cluster::KernelId id = next_kernel_id_;
    next_kernel_id_ += identity_.count;
    KernelRecord& record = kernels_[id];
    record.id = id;
    record.spec = spec;
    record.count_created = count_created;
    sessions_[session] = id;
    waiting_.push_back(id);
    simulation_.schedule_after(kGsProcessing,
                               [this] { try_place_waiting_kernels(); });
    return record;
}

void
SchedulerShard::try_place_waiting_kernels()
{
    while (!waiting_.empty()) {
        KernelRecord& front = kernels_.at(waiting_.front());
        const std::size_t replicas =
            static_cast<std::size_t>(config_.kernel.replica_count);
        const std::vector<cluster::ServerId> servers = placement_.pick(
            cluster_, front.spec, replicas, config_.kernel.replica_count);
        if (servers.size() < replicas) {
            // §3.4.2: failed placement triggers a scale-out; placement is
            // paused and resumes when the new servers register.
            if (!front.scale_out_requested || servers_provisioning_ == 0) {
                const std::size_t missing = replicas - servers.size();
                for (std::size_t i = 0; i < missing; ++i) {
                    provision_server(SchedulerEvent::Kind::kScaleOut);
                }
                front.scale_out_requested = true;
            }
            return;
        }
        waiting_.pop_front();
        place_kernel(front, servers);
    }
}

void
SchedulerShard::place_kernel(KernelRecord& record,
                              const std::vector<cluster::ServerId>& servers)
{
    record.slots.resize(servers.size());
    auto remaining = std::make_shared<std::size_t>(servers.size());
    for (std::size_t i = 0; i < servers.size(); ++i) {
        cluster_.find(servers[i])->subscribe(record.spec);
        record.slots[i].server = servers[i];
        reserve_container(record, static_cast<std::int32_t>(i), servers[i]);

        ++stats_.cold_starts;
        const sim::Time cold =
            sample(cluster::kContainerTimings.cold_start_min,
                   cluster::kContainerTimings.cold_start_max);
        // Records are never erased and a kernel is stopped only once
        // created, so the creation chain can hold its record.
        simulation_.schedule_after(cold, [this, rec = &record, remaining] {
            if (--*remaining > 0) {
                return;
            }
            // All containers provisioned: start the replicas and wait for
            // their Raft group to elect a leader.
            for (std::size_t j = 0; j < rec->slots.size(); ++j) {
                create_replica(*rec, static_cast<std::int32_t>(j),
                               rec->slots[j].server, /*passive=*/false);
            }
            poll([this, rec](int tries) {
                if (leader(*rec) == nullptr && tries < 300) {
                    return false;
                }
                kernel_ready(*rec);
                return true;
            });
        });
    }
}

void
SchedulerShard::kernel_ready(KernelRecord& record)
{
    if (record.count_created) {
        ++stats_.kernels_created;
        record_event(SchedulerEvent::Kind::kKernelCreated);
    }
    record.created = true;
    if (!record.checkpoint.empty()) {
        for (ReplicaSlot& slot : record.slots) {
            if (slot.alive && slot.replica) {
                slot.replica->restore_state(record.checkpoint);
            }
        }
        std::string().swap(record.checkpoint);
    }
    if (record.ended) {
        stop_kernel(record);
        return;
    }
    while (!record.buffered.empty()) {
        CarriedExecution cell = std::move(record.buffered.front());
        record.buffered.pop_front();
        submit_execute(record, std::move(cell.code), cell.is_gpu,
                       cell.submitted_at, std::move(cell.callback));
    }
}

void
SchedulerShard::create_replica(KernelRecord& record, std::int32_t index,
                                cluster::ServerId server, bool passive)
{
    // Allocate Raft endpoints lazily but deterministically: founding
    // replicas of a kernel share one member list.
    if (!passive) {
        // Founding path: allocate ids for the whole group on first call.
        bool any_started = false;
        for (const auto& slot : record.slots) {
            if (slot.replica) {
                any_started = true;
                break;
            }
        }
        if (!any_started) {
            std::vector<net::NodeId> members;
            for (std::size_t i = 0; i < record.slots.size(); ++i) {
                members.push_back(next_raft_id_++);
            }
            for (std::size_t i = 0; i < record.slots.size(); ++i) {
                record.slots[i].replica =
                    std::make_unique<kernel::KernelReplica>(
                        simulation_, network_, *store_, config_.kernel,
                        record.id, static_cast<std::int32_t>(i), members[i],
                        members, sim::Rng(rng_.next_u64()));
                install_hooks(record, static_cast<std::int32_t>(i));
            }
        }
        record.slots[index].alive = true;
        record.slots[index].server = server;
        record.slots[index].replica->start();
        return;
    }
    // Move path: join an existing group passively. The member list is
    // taken from a surviving replica. With none, the new replica is the
    // whole group and starts as its founding member: a passive one would
    // wait for a leader that never comes.
    const kernel::KernelReplica* survivor = first_live(record);
    std::vector<net::NodeId> members;
    if (survivor != nullptr) {
        members = survivor->raft().members();
    }
    const net::NodeId new_id = next_raft_id_++;
    members.push_back(new_id);
    record.slots[index].replica = std::make_unique<kernel::KernelReplica>(
        simulation_, network_, *store_, config_.kernel, record.id, index,
        new_id, members, sim::Rng(rng_.next_u64()));
    install_hooks(record, index);
    record.slots[index].alive = true;
    record.slots[index].server = server;
    if (survivor != nullptr) {
        record.slots[index].replica->start_passive();
    } else {
        record.slots[index].replica->start();
    }
}

void
SchedulerShard::install_hooks(KernelRecord& record, std::int32_t index)
{
    const cluster::KernelId kernel_id = record.id;
    kernel::KernelReplica::Hooks hooks;
    hooks.try_commit = [this, kernel_id,
                        index](const cluster::ResourceSpec& spec) {
        const auto it = kernels_.find(kernel_id);
        if (it == kernels_.end()) {
            return false;
        }
        cluster::GpuServer* server =
            cluster_.find(it->second.slots[index].server);
        if (server == nullptr) {
            return false;
        }
        // §3.3: bind concrete GPU devices; their ids accompany the
        // execute_request metadata to the replica.
        auto devices = server->commit_devices(spec);
        if (!devices) {
            return false;
        }
        it->second.slots[index].bound_devices = std::move(*devices);
        return true;
    };
    hooks.release = [this, kernel_id,
                     index](const cluster::ResourceSpec& spec) {
        const auto it = kernels_.find(kernel_id);
        if (it == kernels_.end()) {
            return;
        }
        ReplicaSlot& slot = it->second.slots[index];
        cluster::GpuServer* server = cluster_.find(slot.server);
        if (server != nullptr) {
            server->release_devices(spec, slot.bound_devices);
        }
        slot.bound_devices.clear();
    };
    hooks.on_result = [this, kernel_id](const kernel::ExecutionResult& r) {
        on_result(kernel_id, r);
    };
    hooks.on_election_failed = [this,
                                kernel_id](kernel::ElectionId election) {
        on_election_failed(kernel_id, election);
    };
    hooks.on_sync_latency = [this](sim::Time latency) {
        sync_latencies_ms_.add(sim::to_millis(latency));
    };
    record.slots[index].replica->set_hooks(std::move(hooks));
}

void
SchedulerShard::stop_kernel(KernelRecord& record)
{
    record.alive = false;
    // A move past the old slot's release holds a placeholder on its
    // target; the slot no longer holds its old server.
    if (record.move) {
        end_move(record);
    }
    for (std::size_t i = 0; i < record.slots.size(); ++i) {
        retire_replica(record.slots[i]);
        release_slot(record, static_cast<std::int32_t>(i));
    }
    record.pending.clear();
}

void
SchedulerShard::begin_session(std::int64_t session,
                              const cluster::ResourceSpec& spec)
{
    open_kernel(session, spec, /*count_created=*/true);
}

bool
SchedulerShard::submit_session(std::int64_t session, std::string code,
                               bool is_gpu, sim::Time submitted_at,
                               ExecuteCallback callback)
{
    KernelRecord* record = session_kernel(session);
    if (record == nullptr || record->ended) {
        return false;
    }
    ++record->window_weight;
    if (record->created) {
        submit_execute(*record, std::move(code), is_gpu, submitted_at,
                       std::move(callback));
    } else {
        record->buffered.push_back(CarriedExecution{
            std::move(code), is_gpu, submitted_at, std::move(callback)});
    }
    return true;
}

void
SchedulerShard::end_session(std::int64_t session)
{
    KernelRecord* record = session_kernel(session);
    if (record == nullptr || record->ended) {
        return;
    }
    record->ended = true;
    record->buffered.clear();
    // A kernel still waiting or being created is stopped by kernel_ready.
    if (record->created) {
        stop_kernel(*record);
    }
}

bool
SchedulerShard::session_movable(std::int64_t session) const
{
    const auto it = sessions_.find(session);
    if (it == sessions_.end()) {
        return false;
    }
    const KernelRecord& record = kernels_.at(it->second);
    return record.alive && record.created && !record.move;
}

bool
SchedulerShard::extract_session(std::int64_t session, SessionExtract& out)
{
    if (!session_movable(session)) {
        return false;
    }
    KernelRecord& kernel = *session_kernel(session);
    out.session = session;
    out.spec = kernel.spec;
    out.checkpoint.clear();
    if (const kernel::KernelReplica* survivor = first_live(kernel)) {
        out.checkpoint = survivor->checkpoint_state();
    }
    // Queued work travels with the session, in election — i.e.
    // submission — order; the cells' in-flight continuations find the
    // pending entry gone and bail. stop_kernel drops pending without
    // firing callbacks, so moving them out first is what keeps every cell
    // exactly-once. A created kernel holds no buffered cells.
    out.work.clear();
    for (auto& [election, pending] : kernel.pending) {
        (void)election;
        out.work.push_back(CarriedExecution{
            std::move(pending.code), pending.is_gpu,
            pending.trace.submitted_at, std::move(pending.callback)});
    }
    kernel.pending.clear();
    stop_kernel(kernel);
    sessions_.erase(session);
    return true;
}

void
SchedulerShard::adopt_session(SessionExtract extract)
{
    KernelRecord& record =
        open_kernel(extract.session, extract.spec, /*count_created=*/false);
    record.checkpoint = std::move(extract.checkpoint);
    record.buffered = std::deque<CarriedExecution>(
        std::make_move_iterator(extract.work.begin()),
        std::make_move_iterator(extract.work.end()));
}

std::size_t
SchedulerShard::session_count() const
{
    return static_cast<std::size_t>(std::count_if(
        sessions_.begin(), sessions_.end(), [this](const auto& entry) {
            return !kernels_.at(entry.second).ended;
        }));
}

void
SchedulerShard::harvest_window_load(ShardLoad& load,
                                    std::vector<SessionLoad>& sessions)
{
    load.weight = 0;
    sessions.clear();
    for (const auto& [session, kernel_id] : sessions_) {
        KernelRecord& record = kernels_.at(kernel_id);
        if (record.window_weight == 0) {
            continue;
        }
        load.weight += record.window_weight;
        sessions.push_back(SessionLoad{session, record.window_weight,
                                       session_movable(session)});
        record.window_weight = 0;
    }
}

std::int32_t
SchedulerShard::pick_designated(const KernelRecord& record) const
{
    const kernel::KernelReplica* survivor = first_live(record);
    const std::int32_t last_executor =
        survivor != nullptr ? survivor->last_executor() : -1;
    std::int32_t best = -1;
    std::int32_t best_idle = -1;
    for (std::size_t i = 0; i < record.slots.size(); ++i) {
        const ReplicaSlot& slot = record.slots[i];
        if (!slot.alive || slot.replica == nullptr ||
            slot.replica->busy()) {
            continue;
        }
        const cluster::GpuServer* server = cluster_.find(slot.server);
        if (server == nullptr || !server->can_commit(record.spec)) {
            continue;
        }
        // Prefer the previous executor (its state is resident), then the
        // server with the most idle GPUs.
        if (static_cast<std::int32_t>(i) == last_executor) {
            return static_cast<std::int32_t>(i);
        }
        if (server->idle_gpus() > best_idle) {
            best_idle = server->idle_gpus();
            best = static_cast<std::int32_t>(i);
        }
    }
    return best;
}

void
SchedulerShard::submit_execute(KernelRecord& record, std::string code,
                                bool is_gpu, sim::Time submitted_at,
                                ExecuteCallback callback)
{
    const cluster::KernelId kernel_id = record.id;
    const kernel::ElectionId election = record.next_election++;
    PendingExecution pending;
    pending.code = std::move(code);
    pending.is_gpu = is_gpu;
    pending.callback = std::move(callback);
    pending.trace.submitted_at = submitted_at;
    record.pending.emplace(election, std::move(pending));

    const sim::Time to_gs = sample(kHops.client_to_gs_min,
                                   kHops.client_to_gs_max);
    simulation_.schedule_after(to_gs, [this, kernel_id, election] {
        KernelRecord* rec = live_kernel(kernel_id);
        if (rec == nullptr) {
            return;
        }
        const auto pit = rec->pending.find(election);
        if (pit == rec->pending.end()) {
            return;
        }
        pit->second.trace.gs_received = simulation_.now();
        simulation_.schedule_after(
            kGsProcessing, [this, kernel_id, election] {
                KernelRecord* rec2 = live_kernel(kernel_id);
                if (rec2 == nullptr) {
                    return;
                }
                const auto pit2 = rec2->pending.find(election);
                if (pit2 == rec2->pending.end()) {
                    return;
                }
                pit2->second.trace.gs_dispatched = simulation_.now();
                std::int32_t designated = -1;
                if (config_.yield_conversion && pit2->second.is_gpu) {
                    designated = pick_designated(*rec2);
                    if (designated >= 0) {
                        ++stats_.yield_conversions;
                    }
                }
                dispatch_execution(*rec2, election, designated);
            });
    });
}

void
SchedulerShard::dispatch_execution(KernelRecord& record,
                                    kernel::ElectionId election,
                                    std::int32_t designated)
{
    const auto pit = record.pending.find(election);
    if (pit == record.pending.end()) {
        return;
    }
    PendingExecution& pending = pit->second;
    const sim::Time to_ls =
        sample(kHops.gs_to_ls_min, kHops.gs_to_ls_max);
    const sim::Time to_replica = sample(kHops.ls_to_replica_min,
                                        kHops.ls_to_replica_max);
    pending.trace.ls_received = simulation_.now() + to_ls;
    pending.trace.replica_received =
        pending.trace.ls_received + kLsProcessing + to_replica;

    for (std::size_t i = 0; i < record.slots.size(); ++i) {
        ReplicaSlot& slot = record.slots[i];
        if (!slot.alive || slot.replica == nullptr) {
            continue;
        }
        kernel::ExecuteRequest request;
        request.election = election;
        request.code = pending.code;
        request.is_gpu = pending.is_gpu;
        request.resources = record.spec;
        request.submitted_at = pending.trace.submitted_at;
        request.yield_converted =
            designated >= 0 && static_cast<std::int32_t>(i) != designated;
        kernel::KernelReplica* replica_ptr = slot.replica.get();
        simulation_.schedule_after(
            to_ls + kLsProcessing + to_replica,
            [replica_ptr, request] {
                replica_ptr->handle_execute_request(request);
            });
    }
}

void
SchedulerShard::on_result(cluster::KernelId kernel_id,
                           const kernel::ExecutionResult& result)
{
    const auto it = kernels_.find(kernel_id);
    if (it == kernels_.end()) {
        return;
    }
    KernelRecord& record = it->second;
    const auto pit = record.pending.find(result.election);
    if (pit == record.pending.end()) {
        return;
    }
    PendingExecution pending = std::move(pit->second);
    record.pending.erase(pit);

    pending.trace.execution_started = result.execution_started_at;
    pending.trace.execution_finished = result.execution_finished_at;
    pending.trace.replica_replied = result.replied_at;
    pending.trace.election_latency = result.election_latency;

    ++stats_.executions_completed;
    if (pending.is_gpu) {
        ++stats_.gpu_executions;
        if (result.gpus_committed_immediately) {
            ++stats_.immediate_commits;
        }
        if (result.executor_reused) {
            ++stats_.executor_reuses;
        }
    }

    // Reply path: replica -> LS -> GS -> client (§3.2.2 steps 9-10; the
    // replies of the standby replicas are aggregated away by the GS).
    const sim::Time back =
        sample(kHops.ls_to_replica_min,
               kHops.ls_to_replica_max) +
        kLsProcessing +
        sample(kHops.gs_to_ls_min, kHops.gs_to_ls_max) +
        sample(kHops.client_to_gs_min, kHops.client_to_gs_max);
    send_reply(back, result, std::move(pending));
}

void
SchedulerShard::send_reply(sim::Time delay, kernel::ExecutionResult result,
                           PendingExecution pending)
{
    ++replies_in_flight_;
    simulation_.schedule_after(
        delay, [this, result = std::move(result),
                pending = std::move(pending)]() mutable {
            --replies_in_flight_;
            pending.trace.client_replied = simulation_.now();
            if (pending.callback) {
                pending.callback(result, pending.trace);
            }
        });
}

void
SchedulerShard::on_election_failed(cluster::KernelId kernel_id,
                                    kernel::ElectionId election)
{
    KernelRecord* record = live_kernel(kernel_id);
    if (record == nullptr) {
        return;
    }
    if (!record->failed_seen.insert(election).second) {
        return;  // Each replica reports the failure; act once.
    }
    if (record->pending.find(election) == record->pending.end()) {
        return;
    }
    ++stats_.elections_failed;
    begin_migration(kernel_id, election);
}

void
SchedulerShard::begin_migration(cluster::KernelId kernel_id,
                                 kernel::ElectionId election)
{
    KernelRecord* record = live_kernel(kernel_id);
    if (record == nullptr) {
        return;
    }
    if (record->move) {
        simulation_.schedule_after(config_.migration_retry,
                                   [this, kernel_id, election] {
                                       begin_migration(kernel_id, election);
                                   });
        return;
    }
    ++stats_.migrations;
    record_event(SchedulerEvent::Kind::kMigration);

    // Victim: the replica on the most GPU-saturated server.
    const std::vector<cluster::ServerId> servers = live_servers(*record);
    const std::size_t victim = pick_victim(cluster_, servers);
    if (victim == servers.size()) {
        abort_execution(kernel_id, election, "no replica to migrate");
        return;
    }
    // §3.2.3: the selected replica persists its state before migrating.
    begin_move(*record, static_cast<std::int32_t>(victim), election,
               record->slots[victim].replica.get());
}

void
SchedulerShard::begin_move(KernelRecord& record, std::int32_t slot,
                           kernel::ElectionId election,
                           const kernel::KernelReplica* source)
{
    const cluster::KernelId kernel_id = record.id;
    record.move = Move{slot, election,
                       source != nullptr ? source->checkpoint_state()
                                         : std::string()};
    if (source == nullptr) {
        place_move(kernel_id);
        return;
    }
    store_->write(checkpoint_key(kernel_id), checkpoint_bytes(source->ns()),
                  [this, kernel_id](sim::Time) { place_move(kernel_id); });
}

void
SchedulerShard::place_move(cluster::KernelId kernel_id)
{
    KernelRecord* record = live_kernel(kernel_id);
    if (record == nullptr) {
        return;
    }
    Move& move = *record->move;
    // A replica that reruns a cell needs the GPUs free on its target; a
    // repair's standby binds GPUs only when it executes.
    const bool reruns = move.election != 0;
    const cluster::ResourceSpec& spec = record->spec;
    const cluster::ServerId target =
        pick_target(cluster_, live_servers(*record),
                    [&spec, reruns](const cluster::GpuServer& server) {
                        return reruns ? server.can_commit(spec)
                                      : spec.fits_within(server.capacity());
                    });
    if (target == cluster::kNoServer) {
        if (!reruns) {
            end_move(*record);  // The next health check retries.
            return;
        }
        const auto pit = record->pending.find(move.election);
        // While a scale-out is in flight the retry clock pauses: the
        // migration is enqueued until the new server registers (§3.4.2
        // reserves resources for paused replicas on incoming servers).
        const bool provisioning = servers_provisioning_ > 0;
        if (pit != record->pending.end() &&
            (provisioning || pit->second.migration_retries++ <
                                 config_.migration_max_retries)) {
            if (config_.scale_out_on_failed_placement && !provisioning) {
                provision_server(SchedulerEvent::Kind::kScaleOut);
            }
            simulation_.schedule_after(config_.migration_retry,
                                       [this, kernel_id] {
                                           place_move(kernel_id);
                                       });
        } else {
            ++stats_.migrations_aborted;
            abort_execution(kernel_id, end_move(*record),
                            "migration aborted: no viable server");
        }
        return;
    }
    // Release the old slot's container/subscription now (its replica is
    // stopped in swap_member), then reserve the target with a placeholder
    // container so the auto-scaler cannot release that server while the
    // move is in flight.
    release_slot(*record, move.slot);
    reserve_container(*record, move.slot, target);
    move.target = target;
    move.reserved = true;
    simulation_.schedule_after(container_delay(target), [this, kernel_id] {
        swap_member(kernel_id);
    });
}

void
SchedulerShard::swap_member(cluster::KernelId kernel_id)
{
    KernelRecord* record = live_kernel(kernel_id);
    if (record == nullptr) {
        return;
    }
    // Terminate the old replica, if the slot still has one (its
    // container/subscription were released when the target was reserved).
    ReplicaSlot& old = record->slots[record->move->slot];
    const net::NodeId old_raft_id =
        old.replica ? old.replica->raft().id() : net::kNoNode;
    retire_replica(old);

    // Ask the surviving majority to drop the old member.
    poll([this, kernel_id, old_raft_id](int tries) {
        KernelRecord* rec = live_kernel(kernel_id);
        if (rec == nullptr) {
            return true;
        }
        const bool removed = std::none_of(
            rec->slots.begin(), rec->slots.end(),
            [old_raft_id](const ReplicaSlot& slot) {
                if (!slot.alive || !slot.replica) {
                    return false;
                }
                const auto& members = slot.replica->raft().members();
                return std::find(members.begin(), members.end(),
                                 old_raft_id) != members.end();
            });
        if (!removed) {
            if (raft::RaftNode* lead = leader(*rec)) {
                lead->propose_remove_member(old_raft_id);
            }
            if (tries > 300) {
                // The placeholder goes with the move; the health checker
                // will repair the dead slot later.
                abort_execution(kernel_id, end_move(*rec),
                                "migration: remove-member timeout");
                return true;
            }
            return false;
        }
        // Membership updated: attach the new replica on the target.
        Move& move = *rec->move;
        cluster::GpuServer* server = cluster_.find(move.target);
        if (server == nullptr) {
            // Cannot happen: the placeholder container pins the server;
            // guard anyway.
            abort_execution(kernel_id, end_move(*rec),
                            "migration target disappeared");
            return true;
        }
        server->subscribe(rec->spec);
        move.reserved = false;
        create_replica(*rec, move.slot, move.target, /*passive=*/true);
        // The new replica restores the persisted state (a data-store
        // read) before joining the Raft group.
        store_->read(checkpoint_key(kernel_id),
                     [this, kernel_id](const storage::ReadResult&) {
                         join_moved_replica(kernel_id);
                     });
        return true;
    });
}

void
SchedulerShard::join_moved_replica(cluster::KernelId kernel_id)
{
    KernelRecord* record = live_kernel(kernel_id);
    if (record == nullptr) {
        return;
    }
    const Move& move = *record->move;
    kernel::KernelReplica& replica = *record->slots[move.slot].replica;
    replica.restore_state(move.checkpoint);
    const net::NodeId new_id = replica.raft().id();
    // Add the new member, then wait for the config commit.
    poll([this, kernel_id, new_id](int tries) {
        KernelRecord* rec = live_kernel(kernel_id);
        if (rec == nullptr) {
            return true;
        }
        const std::int32_t index = rec->move->slot;
        const bool added = std::any_of(
            rec->slots.begin(), rec->slots.end(),
            [new_id](const ReplicaSlot& slot) {
                if (!slot.alive || !slot.replica ||
                    slot.replica->raft().role() != raft::Role::kLeader) {
                    return false;
                }
                const auto& members = slot.replica->raft().members();
                return std::find(members.begin(), members.end(), new_id) !=
                       members.end();
            });
        if (added) {
            // Move complete. A migration resubmits its execution with the
            // moved replica designated; a fresh election id is required
            // because the replicas' logs already hold the failed
            // election's proposals. A repair's election 0 is never
            // pending.
            auto node = rec->pending.extract(end_move(*rec));
            if (!node.empty()) {
                const kernel::ElectionId fresh = rec->next_election++;
                node.key() = fresh;
                node.mapped().trace.migrated = true;
                rec->pending.insert(std::move(node));
                dispatch_execution(*rec, fresh, index);
            }
            return true;
        }
        if (raft::RaftNode* lead = leader(*rec)) {
            lead->propose_add_member(new_id);
        }
        if (tries > 300) {
            // Tear the half-joined replica back down; the health checker
            // repairs the slot.
            retire_replica(rec->slots[index]);
            release_slot(*rec, index);
            abort_execution(kernel_id, end_move(*rec),
                            "migration: add-member timeout");
            return true;
        }
        return false;
    });
}

kernel::ElectionId
SchedulerShard::end_move(KernelRecord& record)
{
    const Move& move = *record.move;
    if (move.reserved) {
        if (cluster::GpuServer* target = cluster_.find(move.target)) {
            target->remove_container(record.slots[move.slot].container);
        }
    }
    const kernel::ElectionId election = move.election;
    record.move.reset();
    return election;
}

void
SchedulerShard::abort_execution(cluster::KernelId kernel_id,
                                 kernel::ElectionId election,
                                 const std::string& reason)
{
    const auto it = kernels_.find(kernel_id);
    if (it == kernels_.end()) {
        return;
    }
    KernelRecord& record = it->second;
    const auto pit = record.pending.find(election);
    if (pit == record.pending.end()) {
        return;
    }
    PendingExecution pending = std::move(pit->second);
    record.pending.erase(pit);
    ++stats_.executions_aborted;

    kernel::ExecutionResult result;
    result.election = election;
    result.status = kernel::ExecutionStatus::kError;
    result.error = reason;
    pending.trace.aborted = true;
    const sim::Time back = sample(kHops.client_to_gs_min,
                                  kHops.client_to_gs_max);
    send_reply(back, std::move(result), std::move(pending));
}

void
SchedulerShard::run_autoscaler()
{
    AutoScalerInputs inputs;
    inputs.committed_gpus = cluster_.total_committed_gpus();
    inputs.total_gpus = cluster_.total_gpus();
    inputs.gpus_per_server = config_.server_shape.gpus;
    inputs.current_servers = static_cast<std::int32_t>(cluster_.size()) +
                             servers_provisioning_;
    std::vector<cluster::ServerId> idle;
    for (const auto& [id, server] : cluster_.servers()) {
        if (server->containers().empty()) {
            idle.push_back(id);
        }
    }
    inputs.idle_servers = static_cast<std::int32_t>(idle.size());

    AutoScaleDecision decision =
        evaluate_autoscaler(inputs, config_.autoscaler);
    // Never shrink while placements are waiting for capacity: the waiting
    // kernel (or in-flight provisioning) needs those servers.
    if (!waiting_.empty() || servers_provisioning_ > 0) {
        decision.remove_servers = 0;
    }
    for (std::int32_t i = 0; i < decision.add_servers; ++i) {
        provision_server(SchedulerEvent::Kind::kScaleOut);
    }
    for (std::int32_t i = 0;
         i < decision.remove_servers &&
         i < static_cast<std::int32_t>(idle.size());
         ++i) {
        prewarm_.unregister_server(idle[i]);
        cluster_.remove_server(idle[i]);
        ++stats_.scale_ins;
        record_event(SchedulerEvent::Kind::kScaleIn);
    }
    simulation_.schedule_after(config_.autoscale_interval,
                               [this] { run_autoscaler(); });
}

void
SchedulerShard::run_prewarmer()
{
    for (const auto& [id, server] : cluster_.servers()) {
        const std::int32_t deficit = prewarm_.deficit(id);
        for (std::int32_t i = 0; i < deficit; ++i) {
            prewarm_.begin_refill(id);
            const sim::Time cold =
                sample(cluster::kContainerTimings.cold_start_min,
                       cluster::kContainerTimings.cold_start_max);
            const cluster::ServerId server_id = id;
            simulation_.schedule_after(cold, [this, server_id] {
                prewarm_.complete_refill(server_id);
            });
        }
    }
    simulation_.schedule_after(config_.prewarm_check_interval,
                               [this] { run_prewarmer(); });
}

void
SchedulerShard::run_health_check()
{
    for (auto& [kernel_id, record] : kernels_) {
        if (!record.alive || !record.created || record.move) {
            continue;  // being created or moving a replica; slots in flux
        }
        for (std::size_t i = 0; i < record.slots.size(); ++i) {
            ReplicaSlot& slot = record.slots[i];
            if (slot.alive && slot.replica && slot.replica->running()) {
                continue;
            }
            // A fail-stop failure detected via missed heartbeats (§3.2.5),
            // or a slot an ended move left empty: move a new replica in,
            // from the synced state of a surviving one.
            slot.alive = false;
            ++stats_.replica_failovers;
            begin_move(record, static_cast<std::int32_t>(i), 0,
                       first_live(record));
            break;
        }
    }
    simulation_.schedule_after(config_.health_check_interval,
                               [this] { run_health_check(); });
}

}  // namespace nbos::sched
