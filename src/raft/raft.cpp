#include "raft/raft.hpp"

#include <algorithm>
#include <cassert>
#include <type_traits>

namespace nbos::raft {

const char*
to_string(Role role)
{
    switch (role) {
      case Role::kFollower:
        return "follower";
      case Role::kCandidate:
        return "candidate";
      case Role::kLeader:
        return "leader";
    }
    return "unknown";
}

// Every Raft wire message must fit the payload envelope's inline buffer:
// the consensus hot path sends one envelope per heartbeat/reply and relies
// on these sends being allocation-free.
static_assert(sizeof(RaftMessage) <= net::Payload::kInlineSize,
              "RaftMessage outgrew the inline payload buffer");
static_assert(std::is_nothrow_move_constructible_v<RaftMessage>,
              "RaftMessage must be nothrow-movable to stay inline");

RaftNode::RaftNode(sim::Simulation& simulation, net::Network& network,
                   net::NodeId id, std::vector<net::NodeId> members,
                   RaftConfig config, sim::Rng rng)
    : simulation_(simulation),
      network_(network),
      id_(id),
      config_(config),
      rng_(rng),
      snapshot_data_(std::make_shared<const std::string>()),
      snapshot_members_(
          std::make_shared<const std::vector<net::NodeId>>(members)),
      members_(std::move(members))
{
}

RaftNode::~RaftNode()
{
    if (running_) {
        stop();
    }
}

void
RaftNode::set_snapshot_hooks(SnapshotFn snap, RestoreFn restore)
{
    snapshot_fn_ = std::move(snap);
    restore_fn_ = std::move(restore);
}

void
RaftNode::start()
{
    assert(!running_);
    running_ = true;
    role_ = Role::kFollower;
    network_.register_node_with_id(
        id_, [this](const net::Message& m) { handle_message(m); });
    reset_election_timer();
}

void
RaftNode::start_passive()
{
    assert(!running_);
    running_ = true;
    role_ = Role::kFollower;
    network_.register_node_with_id(
        id_, [this](const net::Message& m) { handle_message(m); });
    // No election timer: armed on first leader contact.
}

void
RaftNode::stop()
{
    if (!running_) {
        return;
    }
    running_ = false;
    cancel_timers();
    network_.unregister_node(id_);
    role_ = Role::kFollower;
    leader_hint_ = net::kNoNode;
}

void
RaftNode::restart()
{
    assert(!running_);
    // Volatile state resets; durable term/vote/log/snapshot survive.
    commit_index_ = snapshot_last_index_;
    last_applied_ = snapshot_last_index_;
    next_index_.clear();
    match_index_.clear();
    votes_.clear();
    config_change_in_flight_ = false;
    if (restore_fn_) {
        // Rebuild the state machine from the snapshot point (possibly the
        // empty initial state); committed entries re-apply afterwards.
        restore_fn_(*snapshot_data_);
    }
    start();
}

Index
RaftNode::last_log_index() const
{
    return snapshot_last_index_ + log_.size();
}

Term
RaftNode::term_at(Index index) const
{
    if (index == 0) {
        return 0;
    }
    if (index == snapshot_last_index_) {
        return snapshot_last_term_;
    }
    if (index < snapshot_last_index_ || index > last_log_index()) {
        return 0;
    }
    return log_[index - snapshot_last_index_ - 1]->term;
}

const LogEntry&
RaftNode::entry_at(Index index) const
{
    return *entry_ptr_at(index);
}

const LogEntryPtr&
RaftNode::entry_ptr_at(Index index) const
{
    assert(index > snapshot_last_index_ && index <= last_log_index());
    return log_[index - snapshot_last_index_ - 1];
}

bool
RaftNode::log_up_to_date(Index last_index, Term last_term) const
{
    const Term my_last_term = term_at(last_log_index());
    if (last_term != my_last_term) {
        return last_term > my_last_term;
    }
    return last_index >= last_log_index();
}

bool
RaftNode::is_member(net::NodeId node) const
{
    return std::find(members_.begin(), members_.end(), node) !=
           members_.end();
}

std::size_t
RaftNode::majority() const
{
    return members_.size() / 2 + 1;
}

void
RaftNode::send(net::NodeId dst, RaftMessage message)
{
    network_.send(id_, dst, std::move(message));
}

void
RaftNode::handle_message(const net::Message& message)
{
    if (!running_) {
        return;
    }
    const auto* raft_message = message.payload.get<RaftMessage>();
    if (raft_message == nullptr) {
        return;  // Not for us; shared endpoints filter here.
    }
    std::visit(
        [this](const auto& m) {
            using T = std::decay_t<decltype(m)>;
            if constexpr (std::is_same_v<T, RequestVoteArgs>) {
                on_request_vote(m);
            } else if constexpr (std::is_same_v<T, RequestVoteReply>) {
                on_request_vote_reply(m);
            } else if constexpr (std::is_same_v<T, AppendEntriesArgs>) {
                on_append_entries(m);
            } else if constexpr (std::is_same_v<T, AppendEntriesReply>) {
                on_append_entries_reply(m);
            } else if constexpr (std::is_same_v<T, InstallSnapshotArgs>) {
                on_install_snapshot(m);
            } else if constexpr (std::is_same_v<T, InstallSnapshotReply>) {
                on_install_snapshot_reply(m);
            } else if constexpr (std::is_same_v<T, ProposeForward>) {
                on_propose_forward(m);
            }
        },
        *raft_message);
}

void
RaftNode::become_follower(Term term)
{
    if (term > current_term_) {
        current_term_ = term;
        voted_for_ = net::kNoNode;
    }
    role_ = Role::kFollower;
    if (heartbeat_timer_ != 0) {
        simulation_.cancel(heartbeat_timer_);
        heartbeat_timer_ = 0;
    }
    reset_election_timer();
}

void
RaftNode::reset_election_timer()
{
    if (election_timer_ != 0) {
        simulation_.cancel(election_timer_);
    }
    const sim::Time timeout = config_.election_timeout_min +
                              rng_.uniform_int(0,
                                               config_.election_timeout_max -
                                                   config_.election_timeout_min);
    election_timer_ = simulation_.schedule_after(timeout, [this] {
        election_timer_ = 0;
        if (running_ && role_ != Role::kLeader) {
            become_candidate();
        }
    });
}

void
RaftNode::cancel_timers()
{
    if (election_timer_ != 0) {
        simulation_.cancel(election_timer_);
        election_timer_ = 0;
    }
    if (heartbeat_timer_ != 0) {
        simulation_.cancel(heartbeat_timer_);
        heartbeat_timer_ = 0;
    }
}

void
RaftNode::become_candidate()
{
    if (!is_member(id_)) {
        // Removed from the group: never campaign, just idle.
        return;
    }
    ++current_term_;
    role_ = Role::kCandidate;
    voted_for_ = id_;
    leader_hint_ = net::kNoNode;
    votes_.clear();
    votes_[id_] = true;
    ++stats_.elections_started;
    reset_election_timer();
    if (votes_.size() >= majority()) {
        become_leader();
        return;
    }
    RequestVoteArgs args;
    args.term = current_term_;
    args.candidate = id_;
    args.last_log_index = last_log_index();
    args.last_log_term = term_at(last_log_index());
    for (const net::NodeId peer : members_) {
        if (peer != id_) {
            send(peer, args);
        }
    }
}

void
RaftNode::become_leader()
{
    role_ = Role::kLeader;
    leader_hint_ = id_;
    ++stats_.elections_won;
    next_index_.clear();
    match_index_.clear();
    for (const net::NodeId peer : members_) {
        if (peer != id_) {
            next_index_[peer] = last_log_index() + 1;
            match_index_[peer] = 0;
        }
    }
    config_change_in_flight_ = false;
    for (Index i = commit_index_ + 1; i <= last_log_index(); ++i) {
        if (entry_at(i).config_change) {
            config_change_in_flight_ = true;
        }
    }
    if (election_timer_ != 0) {
        simulation_.cancel(election_timer_);
        election_timer_ = 0;
    }
    // Commit a term-opening no-op so entries from previous terms become
    // committable immediately (Raft §5.4.2: a leader may only count
    // replicas for entries of its own term).
    LogEntry noop;
    noop.noop = true;
    append_local(std::move(noop));
    send_heartbeats();
}

void
RaftNode::send_heartbeats()
{
    if (!running_ || role_ != Role::kLeader) {
        return;
    }
    for (const net::NodeId peer : members_) {
        if (peer != id_) {
            replicate_to(peer);
        }
    }
    if (heartbeat_timer_ != 0) {
        simulation_.cancel(heartbeat_timer_);
    }
    heartbeat_timer_ =
        simulation_.schedule_after(config_.heartbeat_interval, [this] {
            heartbeat_timer_ = 0;
            send_heartbeats();
        });
}

void
RaftNode::replicate_to(net::NodeId peer)
{
    Index next = last_log_index() + 1;
    if (const auto it = next_index_.find(peer); it != next_index_.end()) {
        next = it->second;
    } else {
        next_index_[peer] = next;
        match_index_[peer] = 0;
    }
    if (next <= snapshot_last_index_) {
        InstallSnapshotArgs args;
        args.term = current_term_;
        args.leader = id_;
        args.last_included_index = snapshot_last_index_;
        args.last_included_term = snapshot_last_term_;
        args.snapshot = snapshot_data_;
        args.members = snapshot_members_;
        send(peer, std::move(args));
        return;
    }
    AppendEntriesArgs args;
    args.term = current_term_;
    args.leader = id_;
    args.prev_log_index = next - 1;
    args.prev_log_term = term_at(next - 1);
    args.leader_commit = commit_index_;
    const Index last = last_log_index();
    if (next <= last) {
        const auto count = std::min<std::size_t>(
            last - next + 1, config_.max_entries_per_append);
        args.entries.reserve(count);
        for (Index i = next; i < next + count; ++i) {
            args.entries.push_back(entry_ptr_at(i));
        }
    }
    send(peer, std::move(args));
}

void
RaftNode::on_request_vote(const RequestVoteArgs& args)
{
    // §6 mitigation for removed/partitioned servers: ignore campaigns from
    // nodes outside our configuration, and stay loyal to a live leader we
    // heard from within the minimum election timeout. Neither case adopts
    // the candidate's (possibly inflated) term.
    if (!is_member(args.candidate) ||
        (args.term > current_term_ &&
         simulation_.now() - last_leader_contact_ <
             config_.election_timeout_min)) {
        RequestVoteReply reply;
        reply.term = current_term_;
        reply.voter = id_;
        reply.granted = false;
        send(args.candidate, reply);
        return;
    }
    if (args.term > current_term_) {
        become_follower(args.term);
    }
    RequestVoteReply reply;
    reply.term = current_term_;
    reply.voter = id_;
    reply.granted = false;
    if (args.term == current_term_ &&
        (voted_for_ == net::kNoNode || voted_for_ == args.candidate) &&
        log_up_to_date(args.last_log_index, args.last_log_term)) {
        reply.granted = true;
        voted_for_ = args.candidate;
        reset_election_timer();
    }
    send(args.candidate, reply);
}

void
RaftNode::on_request_vote_reply(const RequestVoteReply& reply)
{
    if (reply.term > current_term_) {
        become_follower(reply.term);
        return;
    }
    if (role_ != Role::kCandidate || reply.term < current_term_ ||
        !reply.granted || !is_member(reply.voter)) {
        return;
    }
    votes_[reply.voter] = true;
    std::size_t granted = 0;
    for (const net::NodeId peer : members_) {
        if (const auto it = votes_.find(peer);
            it != votes_.end() && it->second) {
            ++granted;
        }
    }
    if (granted >= majority()) {
        become_leader();
    }
}

void
RaftNode::on_append_entries(const AppendEntriesArgs& args)
{
    AppendEntriesReply reply;
    reply.term = current_term_;
    reply.follower = id_;
    reply.success = false;
    if (args.term < current_term_) {
        send(args.leader, reply);
        return;
    }
    become_follower(args.term);
    leader_hint_ = args.leader;
    last_leader_contact_ = simulation_.now();
    reply.term = current_term_;

    if (args.prev_log_index > last_log_index()) {
        reply.conflict_hint = last_log_index() + 1;
        send(args.leader, reply);
        return;
    }
    // Entries at or below our snapshot point are committed and thus match.
    Index effective_prev = args.prev_log_index;
    std::size_t skip = 0;
    if (effective_prev < snapshot_last_index_) {
        skip = std::min<std::size_t>(args.entries.size(),
                                     snapshot_last_index_ - effective_prev);
        effective_prev = snapshot_last_index_;
    } else if (term_at(effective_prev) != args.prev_log_term) {
        // Fast repair: hint the first index of the conflicting term.
        const Term bad = term_at(effective_prev);
        Index hint = effective_prev;
        while (hint > snapshot_last_index_ + 1 && term_at(hint - 1) == bad) {
            --hint;
        }
        reply.conflict_hint = hint;
        send(args.leader, reply);
        return;
    }

    Index index = effective_prev;
    for (std::size_t i = skip; i < args.entries.size(); ++i) {
        const LogEntryPtr& incoming = args.entries[i];
        index = incoming->index;
        if (index <= last_log_index()) {
            if (term_at(index) == incoming->term) {
                continue;  // Already replicated.
            }
            // Conflict: truncate our uncommitted suffix.
            log_.resize(index - snapshot_last_index_ - 1);
        }
        log_.push_back(incoming);  // Adopt the leader's entry by reference.
    }
    const Index last_new =
        args.entries.empty() ? effective_prev : args.entries.back()->index;
    reply.success = true;
    reply.match_index = std::max(last_new, snapshot_last_index_);
    if (args.leader_commit > commit_index_) {
        commit_index_ = std::min(args.leader_commit, last_log_index());
        apply_committed();
    }
    send(args.leader, reply);
}

void
RaftNode::on_append_entries_reply(const AppendEntriesReply& reply)
{
    if (reply.term > current_term_) {
        become_follower(reply.term);
        return;
    }
    if (role_ != Role::kLeader || reply.term < current_term_) {
        return;
    }
    if (reply.success) {
        match_index_[reply.follower] =
            std::max(match_index_[reply.follower], reply.match_index);
        next_index_[reply.follower] = match_index_[reply.follower] + 1;
        advance_commit();
        if (next_index_[reply.follower] <= last_log_index()) {
            replicate_to(reply.follower);  // Keep streaming the backlog.
        }
    } else {
        Index next = next_index_[reply.follower];
        next = (next > 1) ? next - 1 : 1;
        if (reply.conflict_hint != 0) {
            next = std::min(next, reply.conflict_hint);
        }
        next_index_[reply.follower] = std::max<Index>(next, 1);
        replicate_to(reply.follower);
    }
}

void
RaftNode::on_install_snapshot(const InstallSnapshotArgs& args)
{
    InstallSnapshotReply reply;
    reply.term = current_term_;
    reply.follower = id_;
    reply.last_included_index = snapshot_last_index_;
    if (args.term < current_term_) {
        send(args.leader, reply);
        return;
    }
    become_follower(args.term);
    leader_hint_ = args.leader;
    last_leader_contact_ = simulation_.now();
    reply.term = current_term_;
    if (args.last_included_index <= snapshot_last_index_) {
        send(args.leader, reply);
        return;
    }
    // Retain any log suffix that extends past the snapshot and agrees with
    // it; otherwise discard the whole log.
    if (args.last_included_index <= last_log_index() &&
        term_at(args.last_included_index) == args.last_included_term) {
        const std::size_t drop =
            args.last_included_index - snapshot_last_index_;
        log_.erase(log_.begin(),
                   log_.begin() + static_cast<std::ptrdiff_t>(drop));
    } else {
        log_.clear();
    }
    snapshot_last_index_ = args.last_included_index;
    snapshot_last_term_ = args.last_included_term;
    snapshot_data_ = args.snapshot;
    snapshot_members_ = args.members;
    members_ = *args.members;
    commit_index_ = std::max(commit_index_, snapshot_last_index_);
    last_applied_ = snapshot_last_index_;
    if (restore_fn_) {
        restore_fn_(*snapshot_data_);
    }
    ++stats_.snapshots_installed;
    apply_committed();
    reply.last_included_index = snapshot_last_index_;
    send(args.leader, reply);
}

void
RaftNode::on_install_snapshot_reply(const InstallSnapshotReply& reply)
{
    if (reply.term > current_term_) {
        become_follower(reply.term);
        return;
    }
    if (role_ != Role::kLeader || reply.term < current_term_) {
        return;
    }
    match_index_[reply.follower] = std::max(match_index_[reply.follower],
                                            reply.last_included_index);
    next_index_[reply.follower] = match_index_[reply.follower] + 1;
    if (next_index_[reply.follower] <= last_log_index()) {
        replicate_to(reply.follower);
    }
}

void
RaftNode::on_propose_forward(const ProposeForward& forward)
{
    if (role_ != Role::kLeader) {
        return;  // Stale hint at the sender; it will retry.
    }
    LogEntry entry;
    entry.data = forward.data;
    append_local(std::move(entry));
}

bool
RaftNode::propose(std::string data)
{
    if (!running_) {
        return false;
    }
    if (role_ == Role::kLeader) {
        LogEntry entry;
        entry.data = std::move(data);
        append_local(std::move(entry));
        return true;
    }
    if (leader_hint_ != net::kNoNode && leader_hint_ != id_) {
        ++stats_.proposals_forwarded;
        send(leader_hint_, ProposeForward{std::move(data)});
        return true;
    }
    return false;
}

bool
RaftNode::propose_add_member(net::NodeId node)
{
    if (role_ != Role::kLeader || config_change_in_flight_ ||
        is_member(node)) {
        return false;
    }
    LogEntry entry;
    entry.config_change = true;
    entry.members = members_;
    entry.members.push_back(node);
    config_change_in_flight_ = true;
    append_local(std::move(entry));
    return true;
}

bool
RaftNode::propose_remove_member(net::NodeId node)
{
    if (role_ != Role::kLeader || config_change_in_flight_ ||
        !is_member(node)) {
        return false;
    }
    LogEntry entry;
    entry.config_change = true;
    for (const net::NodeId member : members_) {
        if (member != node) {
            entry.members.push_back(member);
        }
    }
    config_change_in_flight_ = true;
    append_local(std::move(entry));
    return true;
}

void
RaftNode::append_local(LogEntry entry)
{
    entry.term = current_term_;
    entry.index = last_log_index() + 1;
    // Frozen from here on: followers and apply callbacks share this object.
    log_.push_back(std::make_shared<const LogEntry>(std::move(entry)));
    for (const net::NodeId peer : members_) {
        if (peer != id_) {
            replicate_to(peer);
        }
    }
    advance_commit();  // Single-node groups commit immediately.
}

Index
quorum_index(std::vector<Index>& match, std::size_t majority)
{
    if (majority == 0 || match.size() < majority) {
        return 0;
    }
    const auto quorum = match.begin() + static_cast<std::ptrdiff_t>(
                                            majority - 1);
    std::nth_element(match.begin(), quorum, match.end(),
                     std::greater<Index>());
    return *quorum;
}

void
RaftNode::advance_commit()
{
    const Index last = last_log_index();
    if (role_ != Role::kLeader || last <= commit_index_) {
        return;
    }
    // The leader holds its whole log; a member it has no match for holds
    // nothing it knows of.
    commit_match_.clear();
    for (const net::NodeId peer : members_) {
        if (peer == id_) {
            commit_match_.push_back(last);
            continue;
        }
        const auto it = match_index_.find(peer);
        commit_match_.push_back(it != match_index_.end() ? it->second : 0);
    }
    const Index n = std::min(quorum_index(commit_match_, majority()), last);
    // Only an entry from the current term commits by count (§5.4.2);
    // the entries before it commit with it.
    if (n <= commit_index_ || term_at(n) != current_term_) {
        return;
    }
    commit_index_ = n;
    apply_committed();
    // Propagate the new commit index immediately instead of waiting for
    // the next heartbeat: follower state machines (e.g. kernel executor
    // elections and state sync) apply with round-trip latency rather than
    // heartbeat latency.
    for (const net::NodeId peer : members_) {
        if (peer != id_) {
            replicate_to(peer);
        }
    }
}

void
RaftNode::apply_committed()
{
    while (last_applied_ < commit_index_) {
        ++last_applied_;
        // Hold a shared reference (not a deep copy): the entry stays alive
        // even if the apply callback triggers proposals or compaction.
        const LogEntryPtr entry_ref = entry_ptr_at(last_applied_);
        const LogEntry& entry = *entry_ref;
        if (entry.noop) {
            // Term-opening no-op: nothing to apply.
        } else if (entry.config_change) {
            members_ = entry.members;
            config_change_in_flight_ = false;
            if (role_ == Role::kLeader) {
                for (const net::NodeId peer : members_) {
                    if (peer != id_ &&
                        next_index_.find(peer) == next_index_.end()) {
                        next_index_[peer] = last_log_index() + 1;
                        match_index_[peer] = 0;
                        replicate_to(peer);
                    }
                }
                if (!is_member(id_)) {
                    // Leader removed itself: step down.
                    become_follower(current_term_);
                }
            }
        } else if (apply_) {
            apply_(entry);
        }
        ++stats_.entries_applied;
    }
    maybe_compact();
}

void
RaftNode::maybe_compact()
{
    if (config_.snapshot_threshold == 0 || !snapshot_fn_) {
        return;
    }
    if (last_applied_ <= snapshot_last_index_) {
        return;
    }
    const std::size_t applied_retained = last_applied_ - snapshot_last_index_;
    if (applied_retained <= config_.snapshot_threshold) {
        return;
    }
    snapshot_data_ = std::make_shared<const std::string>(snapshot_fn_());
    snapshot_last_term_ = term_at(last_applied_);
    const std::size_t drop = last_applied_ - snapshot_last_index_;
    log_.erase(log_.begin(), log_.begin() + static_cast<std::ptrdiff_t>(drop));
    snapshot_last_index_ = last_applied_;
    snapshot_members_ =
        std::make_shared<const std::vector<net::NodeId>>(members_);
    ++stats_.snapshots_taken;
}

}  // namespace nbos::raft
