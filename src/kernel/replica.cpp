#include "kernel/replica.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <string_view>

#include "nblang/analysis.hpp"
#include "nblang/parser.hpp"
#include "nblang/token.hpp"

namespace nbos::kernel {

namespace {

constexpr char kSnapshotSep = '\x1d';

/** Fixed serialization overhead before a SYNC proposal. */
constexpr sim::Time kSyncBaseOverhead = 4 * sim::kMillisecond;
/** Serialization bandwidth for inline SYNC payloads (bytes/s). */
constexpr double kSyncBytesPerSecond = 200e6;

}  // namespace

KernelReplica::KernelReplica(sim::Simulation& simulation,
                             net::Network& network,
                             storage::DataStore& store, KernelConfig config,
                             cluster::KernelId kernel_id,
                             std::int32_t replica_index,
                             net::NodeId raft_node_id,
                             std::vector<net::NodeId> members, sim::Rng rng)
    : simulation_(simulation),
      network_(network),
      store_(store),
      config_(config),
      kernel_id_(kernel_id),
      replica_index_(replica_index),
      rng_(rng)
{
    raft_ = std::make_unique<raft::RaftNode>(simulation_, network_,
                                             raft_node_id,
                                             std::move(members), config_.raft,
                                             rng_.split());
    raft_->set_apply(
        [this](const raft::LogEntry& entry) { on_apply(entry); });
    raft_->set_snapshot_hooks(
        [this] { return raft_snapshot(); },
        [this](const std::string& snapshot) { raft_restore(snapshot); });
}

void
KernelReplica::start()
{
    running_ = true;
    raft_->start();
}

void
KernelReplica::start_passive()
{
    running_ = true;
    raft_->start_passive();
}

void
KernelReplica::stop()
{
    if (!running_) {
        return;
    }
    running_ = false;
    current_election_ = 0;
    queue_.clear();
    own_syncs_applied_.clear();
    raft_->stop();
}

void
KernelReplica::restart()
{
    assert(!running_);
    running_ = true;
    current_election_ = 0;
    executing_ = false;
    queue_.clear();
    own_syncs_applied_.clear();
    raft_->restart();
}

std::string
KernelReplica::checkpoint_state() const
{
    return std::string("EXEC ") + std::to_string(last_executor_) +
           kSnapshotSep +
           checkpoint_namespace(ns_, config_.large_object_threshold);
}

void
KernelReplica::restore_state(const std::string& checkpoint)
{
    raft_restore(checkpoint);
}

std::string
KernelReplica::raft_snapshot() const
{
    return checkpoint_state();
}

void
KernelReplica::raft_restore(const std::string& snapshot)
{
    ns_.clear();
    non_resident_.clear();
    if (snapshot.empty()) {
        last_executor_ = -1;
        return;
    }
    const std::size_t sep = snapshot.find(kSnapshotSep);
    std::string body = snapshot;
    if (sep != std::string::npos) {
        const std::string head = snapshot.substr(0, sep);
        if (head.rfind("EXEC ", 0) == 0) {
            // Checked parse: atoi silently yielded executor 0 (a real
            // replica index) for malformed heads; a corrupt snapshot must
            // be an error, not a quiet misdirection of executor affinity.
            const std::string_view raw = std::string_view(head).substr(5);
            std::int32_t executor = 0;
            const auto [ptr, ec] = std::from_chars(
                raw.data(), raw.data() + raw.size(), executor);
            if (ec != std::errc{} || ptr != raw.data() + raw.size()) {
                throw nblang::Error(
                    "malformed executor id in checkpoint head: '" + head +
                    "'");
            }
            last_executor_ = executor;
        }
        body = snapshot.substr(sep + 1);
    }
    // A restored namespace has no resident bytes for large objects; they
    // page in from the data store on first use.
    apply_delta(deserialize_delta(body), ns_, non_resident_);
    // A snapshot may replace compacted protocol entries (DONE/SYNC) this
    // replica never applied. The snapshot state already reflects those
    // elections, so a standby must not keep waiting for their completion
    // signals — clear the in-flight marker and drain any queued requests.
    // (An actively executing replica keeps its election: it is the one
    // producing the state.)
    if (!executing_) {
        current_election_ = 0;
        syncing_election_ = 0;
        if (running_) {
            simulation_.schedule_after(0, [this] { drain_queue(); });
        }
    }
}

KernelReplica::ElectionState&
KernelReplica::election(ElectionId id)
{
    // Trim ancient elections so long-lived kernels stay bounded.
    while (elections_.size() > 64 && elections_.begin()->first + 32 < id) {
        elections_.erase(elections_.begin());
    }
    return elections_[id];
}

void
KernelReplica::handle_execute_request(const ExecuteRequest& request)
{
    if (!running_) {
        return;
    }
    if (current_election_ != 0) {
        // §3.2.4: requests arriving during an in-flight election,
        // execution, or state replication are enqueued until the previous
        // cell fully completes (cells are serial within a kernel).
        queue_.push_back(request);
        return;
    }
    start_election(request);
}

void
KernelReplica::start_election(const ExecuteRequest& request)
{
    current_election_ = request.election;
    ElectionState& el = election(request.election);
    el.request = request;
    el.received_at = simulation_.now();
    el.election_started_at = simulation_.now();
    el.participated = true;

    KernelLogEntry entry;
    entry.election = request.election;
    entry.replica = replica_index_;
    if (request.yield_converted) {
        entry.kind = EntryKind::kYield;
    } else if (!request.is_gpu) {
        // CPU-only cells need no GPU binding: always willing to lead.
        entry.kind = EntryKind::kLead;
    } else if (hooks_.try_commit && hooks_.try_commit(request.resources)) {
        el.reserved = true;
        el.committed_immediately = true;
        entry.kind = EntryKind::kLead;
    } else {
        entry.kind = EntryKind::kYield;
    }
    const ElectionId id = request.election;
    propose_reliable(encode_entry(entry), [this, id] {
        return election(id).proposals_seen.count(replica_index_) > 0;
    });
}

void
KernelReplica::propose_with_retry(std::string payload)
{
    if (!running_) {
        return;
    }
    if (!raft_->propose(payload)) {
        simulation_.schedule_after(
            config_.proposal_retry,
            [this, payload = std::move(payload)]() mutable {
                propose_with_retry(std::move(payload));
            });
    }
}

void
KernelReplica::propose_reliable(std::string payload,
                                std::function<bool()> applied)
{
    if (!running_ || applied()) {
        return;
    }
    raft_->propose(payload);
    simulation_.schedule_after(
        config_.proposal_retry,
        [this, payload = std::move(payload),
         applied = std::move(applied)]() mutable {
            propose_reliable(std::move(payload), std::move(applied));
        });
}

void
KernelReplica::on_apply(const raft::LogEntry& entry)
{
    const auto decoded = decode_entry(entry.data);
    if (!decoded) {
        return;
    }
    switch (decoded->kind) {
      case EntryKind::kLead:
      case EntryKind::kYield:
        on_lead_or_yield(*decoded);
        break;
      case EntryKind::kVote:
        break;  // Votes are bookkeeping; the first committed LEAD decides.
      case EntryKind::kDone:
        on_done(*decoded);
        break;
      case EntryKind::kSync:
        on_sync(*decoded);
        break;
    }
}

void
KernelReplica::on_lead_or_yield(const KernelLogEntry& log_entry)
{
    ElectionState& el = election(log_entry.election);
    if (!el.proposals_seen.insert(log_entry.replica).second) {
        return;  // Duplicate proposal (retry); ignore.
    }
    if (log_entry.kind == EntryKind::kLead && !el.decided) {
        // The first committed LEAD proposal wins (Fig. 5, step 3-5).
        el.decided = true;
        el.winner = log_entry.replica;
        if (running_ && !el.voted) {
            el.voted = true;
            KernelLogEntry vote;
            vote.kind = EntryKind::kVote;
            vote.election = log_entry.election;
            vote.replica = replica_index_;
            vote.target = el.winner;
            propose_with_retry(encode_entry(vote));
        }
        if (el.winner == replica_index_) {
            if (el.participated && !el.request.code.empty() && running_) {
                begin_execution(log_entry.election);
            }
        } else if (el.reserved) {
            // Lost the election: free the speculatively committed GPUs.
            el.reserved = false;
            if (hooks_.release) {
                hooks_.release(el.request.resources);
            }
        }
        return;
    }
    // All replicas yielded: the election failed (§3.2.3) and the Global
    // Scheduler must migrate a replica to a server with idle GPUs. The
    // quorum is the *current* group size (a kernel may transiently run
    // with fewer replicas while one is being replaced).
    const std::size_t group_size =
        std::min<std::size_t>(static_cast<std::size_t>(
                                  config_.replica_count),
                              raft_->members().size());
    if (!el.decided && el.proposals_seen.size() >= group_size &&
        !el.failed_notified) {
        el.failed_notified = true;
        if (current_election_ == log_entry.election) {
            current_election_ = 0;
        }
        if (running_ && el.participated && hooks_.on_election_failed) {
            hooks_.on_election_failed(log_entry.election);
        }
        drain_queue();
    }
}

void
KernelReplica::begin_execution(ElectionId id)
{
    ElectionState& el = election(id);
    ++executions_;
    executing_ = true;
    current_result_ = ExecutionResult{};
    current_result_.election = id;
    current_result_.executor_replica = replica_index_;
    current_result_.received_at = el.received_at;
    current_result_.election_latency =
        simulation_.now() - el.election_started_at;
    current_result_.executor_reused = (last_executor_ == replica_index_);
    current_result_.gpus_committed_immediately = el.committed_immediately;

    // Page in referenced large objects that are not resident (§3.2.4:
    // pointers encode data retrieval; replicas handle it transparently).
    std::vector<std::string> to_fetch;
    try {
        const nblang::CellAnalysis analysis =
            nblang::analyze_source(el.request.code);
        for (const std::string& name : analysis.referenced) {
            if (non_resident_.count(name) > 0) {
                to_fetch.push_back(name);
            }
        }
    } catch (const nblang::Error&) {
        // Syntax errors surface from the interpreter below.
    }
    current_result_.restore_reads = static_cast<std::int32_t>(
        to_fetch.size());

    auto proceed = [this, id] {
        ElectionState& state = election(id);
        const sim::Time bind_delay =
            state.request.is_gpu
                ? rng_.uniform_int(cluster::kContainerTimings.gpu_bind_min,
                                   cluster::kContainerTimings.gpu_bind_max)
                : 0;
        simulation_.schedule_after(bind_delay,
                                   [this, id] { run_user_code(id); });
    };
    if (to_fetch.empty()) {
        proceed();
        return;
    }
    auto remaining = std::make_shared<std::size_t>(to_fetch.size());
    for (const std::string& name : to_fetch) {
        store_.read(object_key(kernel_id_, name),
                    [this, name, remaining, proceed](
                        const storage::ReadResult&) {
                        non_resident_.erase(name);
                        if (--*remaining == 0 && running_) {
                            proceed();
                        }
                    });
    }
}

void
KernelReplica::run_user_code(ElectionId id)
{
    if (!running_) {
        return;
    }
    ElectionState& el = election(id);
    current_result_.execution_started_at = simulation_.now();
    nblang::Effect effect;
    ExecutionStatus status = ExecutionStatus::kOk;
    std::string error;
    try {
        effect = nblang::execute_source(el.request.code, ns_);
    } catch (const nblang::Error& e) {
        status = ExecutionStatus::kError;
        error = e.what();
    }
    const sim::Time duration =
        sim::from_seconds(effect.gpu_seconds + effect.cpu_seconds);
    simulation_.schedule_after(duration,
                               [this, id, effect, status, error] {
                                   finish_execution(id, effect, status,
                                                    error);
                               });
}

void
KernelReplica::finish_execution(ElectionId id, const nblang::Effect& effect,
                                ExecutionStatus status,
                                const std::string& error)
{
    if (!running_) {
        return;
    }
    ElectionState& el = election(id);
    current_result_.execution_finished_at = simulation_.now();
    current_result_.status = status;
    current_result_.error = error;
    current_result_.output = effect.output;

    // §3.3: the result returns only after GPU state is copied back to host
    // memory.
    const sim::Time unbind_delay =
        el.request.is_gpu
            ? rng_.uniform_int(cluster::kContainerTimings.gpu_unbind_min,
                               cluster::kContainerTimings.gpu_unbind_max)
            : 0;
    simulation_.schedule_after(unbind_delay, [this, id, effect] {
        if (!running_) {
            return;
        }
        ElectionState& state = election(id);
        if (state.reserved) {
            state.reserved = false;
            if (hooks_.release) {
                hooks_.release(state.request.resources);
            }
        }
        current_result_.replied_at = simulation_.now();
        executing_ = false;
        if (hooks_.on_result) {
            hooks_.on_result(current_result_);
        }
        KernelLogEntry done;
        done.kind = EntryKind::kDone;
        done.election = id;
        done.replica = replica_index_;
        propose_reliable(encode_entry(done),
                         [this, id] { return election(id).done; });
        // State replication happens off the critical path, after the reply.
        replicate_state(id, effect);
    });
}

void
KernelReplica::replicate_state(ElectionId id, const nblang::Effect& effect)
{
    const StateDelta delta =
        build_delta(ns_, effect.assigned, effect.deleted,
                    config_.large_object_threshold);
    // Large objects stream to the Distributed Data Store asynchronously.
    for (const VarRecord& var : delta.vars) {
        if (var.is_pointer) {
            store_.write(object_key(kernel_id_, var.name),
                         var.value.size_bytes, nullptr);
        }
    }
    // A SYNC entry is proposed even when the delta is empty: its
    // commitment is the kernel-wide signal that the cell fully completed,
    // which is what serializes back-to-back cells on standby replicas.
    KernelLogEntry sync;
    sync.kind = EntryKind::kSync;
    sync.election = id;
    sync.replica = replica_index_;
    sync.payload = serialize_delta(delta);
    const sim::Time overhead =
        kSyncBaseOverhead +
        sim::from_seconds(static_cast<double>(delta.inline_bytes()) /
                          kSyncBytesPerSecond);
    simulation_.schedule_after(
        overhead, [this, id, payload = encode_entry(sync)]() mutable {
            if (!running_) {
                return;
            }
            sync_proposed_at_ = simulation_.now();
            syncing_election_ = id;
            propose_reliable(std::move(payload), [this, id] {
                return own_syncs_applied_.count(id) > 0;
            });
        });
}

void
KernelReplica::complete_sync(ElectionId id)
{
    if (current_election_ == id) {
        current_election_ = 0;
    }
    drain_queue();
}

void
KernelReplica::on_sync(const KernelLogEntry& entry)
{
    if (entry.replica == replica_index_) {
        if (!own_syncs_applied_.insert(entry.election).second) {
            return;  // Duplicate from a reliable-proposal retry.
        }
        while (own_syncs_applied_.size() > 64) {
            own_syncs_applied_.erase(own_syncs_applied_.begin());
        }
        if (syncing_election_ == entry.election &&
            current_election_ == entry.election) {
            // Our own SYNC committed in this run: the executor's namespace
            // is already authoritative, so only record the latency.
            if (hooks_.on_sync_latency) {
                hooks_.on_sync_latency(simulation_.now() -
                                       sync_proposed_at_);
            }
            complete_sync(entry.election);
            return;
        }
        // Otherwise this is a replay after restart: fall through and apply
        // (large objects correctly become non-resident pointers).
    }
    // Standby (or replaying) replica: apply the delta; large objects become
    // non-resident pointers.
    try {
        apply_delta(deserialize_delta(entry.payload), ns_, non_resident_);
    } catch (const nblang::Error&) {
        // Malformed delta: ignore (cannot happen with our own encoder).
    }
    // The committed SYNC completes the election on standbys too.
    complete_sync(entry.election);
}

void
KernelReplica::on_done(const KernelLogEntry& entry)
{
    last_executor_ = entry.replica;
    election(entry.election).done = true;
}

void
KernelReplica::drain_queue()
{
    if (!running_ || current_election_ != 0 || queue_.empty()) {
        return;
    }
    const ExecuteRequest request = queue_.front();
    queue_.pop_front();
    start_election(request);
}

}  // namespace nbos::kernel
