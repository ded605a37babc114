/**
 * @file
 * From-scratch Raft consensus (Ongaro & Ousterhout, USENIX ATC'14) running
 * over the simulated network.
 *
 * NotebookOS replicates the CPU-side state of each distributed kernel with
 * Raft (§3.2.2/§3.2.4 of the paper) and runs its executor-election protocol
 * as entries in the Raft log. This implementation provides leader election
 * with randomized timeouts, log replication with consistency repair,
 * commit/apply, proposal forwarding from followers to the leader, log
 * compaction with snapshot install for lagging or freshly migrated replicas,
 * and single-server membership changes (used when a kernel replica migrates
 * to another GPU server).
 *
 * Simplification vs. the dissertation: configuration-change entries take
 * effect when *committed* rather than when appended. NotebookOS performs
 * membership changes one server at a time under an operational majority
 * (§3.2.3), where this rule is safe; tests cover the migration flow.
 */
#ifndef NBOS_RAFT_RAFT_HPP
#define NBOS_RAFT_RAFT_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "net/network.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace nbos::raft {

/** Raft term number. */
using Term = std::uint64_t;
/** Raft log index (1-based; 0 means "no entry"). */
using Index = std::uint64_t;

/** Role of a Raft node. */
enum class Role
{
    kFollower,
    kCandidate,
    kLeader,
};

/** Human-readable role name. */
const char* to_string(Role role);

/**
 * The largest log index that a majority of a group's members hold: the
 * @p majority-th largest of @p match, one match index per member (etcd
 * raft's MajorityConfig.CommittedIndex). 0 when @p match has fewer than
 * @p majority entries. Reorders @p match.
 */
Index quorum_index(std::vector<Index>& match, std::size_t majority);

/** One replicated log entry. */
struct LogEntry
{
    Term term = 0;
    Index index = 0;
    /** Opaque application payload (empty for config entries). */
    std::string data;
    /** True if this entry changes cluster membership. */
    bool config_change = false;
    /** True for the leader's term-opening no-op (not applied). */
    bool noop = false;
    /** Full member list taking effect when a config entry commits. */
    std::vector<net::NodeId> members;
};

/**
 * Shared handle to one immutable log entry. Entries are frozen once
 * appended, so leaders ship them by reference count instead of deep-copying
 * up to max_entries_per_append payloads per AppendEntries, and followers
 * adopt the shipped entries directly into their logs.
 */
using LogEntryPtr = std::shared_ptr<const LogEntry>;

/** RequestVote RPC arguments (Raft §5.2). */
struct RequestVoteArgs
{
    Term term = 0;
    net::NodeId candidate = net::kNoNode;
    Index last_log_index = 0;
    Term last_log_term = 0;
};

/** RequestVote RPC reply. */
struct RequestVoteReply
{
    Term term = 0;
    bool granted = false;
    net::NodeId voter = net::kNoNode;
};

/** AppendEntries RPC arguments (heartbeat + replication, Raft §5.3). */
struct AppendEntriesArgs
{
    Term term = 0;
    net::NodeId leader = net::kNoNode;
    Index prev_log_index = 0;
    Term prev_log_term = 0;
    std::vector<LogEntryPtr> entries;
    Index leader_commit = 0;
};

/** AppendEntries RPC reply, with a conflict hint for fast log repair. */
struct AppendEntriesReply
{
    Term term = 0;
    bool success = false;
    net::NodeId follower = net::kNoNode;
    /** Highest index known replicated on the follower (on success). */
    Index match_index = 0;
    /** Follower's suggestion for the leader's next_index (on failure). */
    Index conflict_hint = 0;
};

/** InstallSnapshot RPC arguments (Raft §7). */
struct InstallSnapshotArgs
{
    Term term = 0;
    net::NodeId leader = net::kNoNode;
    Index last_included_index = 0;
    Term last_included_term = 0;
    /** Opaque application snapshot produced by the SnapshotFn; shared so
     *  resends to lagging replicas never copy the snapshot bytes. */
    std::shared_ptr<const std::string> snapshot;
    std::shared_ptr<const std::vector<net::NodeId>> members;
};

/** InstallSnapshot RPC reply. */
struct InstallSnapshotReply
{
    Term term = 0;
    net::NodeId follower = net::kNoNode;
    Index last_included_index = 0;
};

/** Follower-to-leader proposal forwarding. */
struct ProposeForward
{
    std::string data;
};

/** Union of all Raft wire messages. */
using RaftMessage =
    std::variant<RequestVoteArgs, RequestVoteReply, AppendEntriesArgs,
                 AppendEntriesReply, InstallSnapshotArgs,
                 InstallSnapshotReply, ProposeForward>;

/** Tunables; defaults follow the classic 150-300 ms / 50 ms split. */
struct RaftConfig
{
    sim::Time election_timeout_min = 150 * sim::kMillisecond;
    sim::Time election_timeout_max = 300 * sim::kMillisecond;
    sim::Time heartbeat_interval = 50 * sim::kMillisecond;
    /** Max entries shipped per AppendEntries. */
    std::size_t max_entries_per_append = 64;
    /**
     * Compact the log once more than this many applied entries are
     * retained; 0 disables compaction.
     */
    std::size_t snapshot_threshold = 0;
};

/** Counters exposed for tests and the micro benchmarks. */
struct RaftStats
{
    std::uint64_t elections_started = 0;
    std::uint64_t elections_won = 0;
    std::uint64_t entries_applied = 0;
    std::uint64_t snapshots_taken = 0;
    std::uint64_t snapshots_installed = 0;
    std::uint64_t proposals_forwarded = 0;
};

/**
 * One Raft participant. Each NotebookOS kernel replica owns one RaftNode;
 * the three replicas of a distributed kernel form one Raft group.
 */
class RaftNode
{
  public:
    /** Invoked exactly once per committed application entry, in order. */
    using ApplyFn = std::function<void(const LogEntry&)>;
    /** Produces an opaque application snapshot at the current applied state. */
    using SnapshotFn = std::function<std::string()>;
    /** Restores application state from a snapshot payload. */
    using RestoreFn = std::function<void(const std::string&)>;

    /**
     * @param simulation  event engine driving timers.
     * @param network     transport; @p id must already be registered-free.
     * @param id          this node's network endpoint id.
     * @param members     initial member list (must include @p id).
     * @param config      protocol tunables.
     * @param rng         per-node RNG (election timeout randomization).
     */
    RaftNode(sim::Simulation& simulation, net::Network& network,
             net::NodeId id, std::vector<net::NodeId> members,
             RaftConfig config, sim::Rng rng);

    ~RaftNode();

    RaftNode(const RaftNode&) = delete;
    RaftNode& operator=(const RaftNode&) = delete;

    /** Set the apply callback (must be set before start()). */
    void set_apply(ApplyFn fn) { apply_ = std::move(fn); }

    /** Install snapshot hooks (required if compaction is enabled). */
    void set_snapshot_hooks(SnapshotFn snap, RestoreFn restore);

    /** Join the network and arm the election timer. */
    void start();

    /**
     * Join the network without arming the election timer. Used by freshly
     * migrated replicas joining an existing group: the node stays passive
     * until it first hears from the group's leader, so it cannot disrupt
     * the incumbent with spurious elections while its membership entry is
     * still in flight.
     */
    void start_passive();

    /** Fail-stop crash: drop off the network and cancel all timers. */
    void stop();

    /** Recover after stop(); durable state (term, vote, log) is retained. */
    void restart();

    /** True between start()/restart() and stop(). */
    bool running() const { return running_; }

    /**
     * Propose an application command.
     *
     * Leaders append locally; followers forward to the last known leader.
     * @return false if no leader is known (caller should retry later).
     */
    bool propose(std::string data);

    /** Propose adding @p node to the group (leader only; one at a time). */
    bool propose_add_member(net::NodeId node);

    /** Propose removing @p node from the group (leader only). */
    bool propose_remove_member(net::NodeId node);

    /** @name Introspection */
    ///@{
    net::NodeId id() const { return id_; }
    Role role() const { return role_; }
    Term term() const { return current_term_; }
    net::NodeId leader_hint() const { return leader_hint_; }
    Index commit_index() const { return commit_index_; }
    Index last_applied() const { return last_applied_; }
    Index last_log_index() const;
    const std::vector<net::NodeId>& members() const { return members_; }
    const RaftStats& stats() const { return stats_; }
    /** Entries still retained after compaction (for tests). */
    std::size_t retained_log_size() const { return log_.size(); }
    ///@}

  private:
    void handle_message(const net::Message& message);
    void on_request_vote(const RequestVoteArgs& args);
    void on_request_vote_reply(const RequestVoteReply& reply);
    void on_append_entries(const AppendEntriesArgs& args);
    void on_append_entries_reply(const AppendEntriesReply& reply);
    void on_install_snapshot(const InstallSnapshotArgs& args);
    void on_install_snapshot_reply(const InstallSnapshotReply& reply);
    void on_propose_forward(const ProposeForward& forward);

    void become_follower(Term term);
    void become_candidate();
    void become_leader();
    void reset_election_timer();
    void cancel_timers();
    void send_heartbeats();
    void replicate_to(net::NodeId peer);
    void advance_commit();
    void apply_committed();
    void maybe_compact();
    void append_local(LogEntry entry);

    /** Term of the entry at @p index (snapshot-aware; 0 for index 0). */
    Term term_at(Index index) const;
    /** Entry at @p index (must be retained). */
    const LogEntry& entry_at(Index index) const;
    /** Shared handle to the entry at @p index (must be retained). */
    const LogEntryPtr& entry_ptr_at(Index index) const;
    /** True if (last_term, last_index) is at least as up-to-date as ours. */
    bool log_up_to_date(Index last_index, Term last_term) const;
    bool is_member(net::NodeId node) const;
    std::size_t majority() const;
    void send(net::NodeId dst, RaftMessage message);

    sim::Simulation& simulation_;
    net::Network& network_;
    net::NodeId id_;
    RaftConfig config_;
    sim::Rng rng_;

    // Durable state (survives stop()/restart()).
    Term current_term_ = 0;
    net::NodeId voted_for_ = net::kNoNode;
    std::vector<LogEntryPtr> log_;  ///< Entries after the snapshot point.
    Index snapshot_last_index_ = 0;
    Term snapshot_last_term_ = 0;
    std::shared_ptr<const std::string> snapshot_data_;
    std::shared_ptr<const std::vector<net::NodeId>> snapshot_members_;
    std::vector<net::NodeId> members_;

    // Volatile state.
    bool running_ = false;
    Role role_ = Role::kFollower;
    net::NodeId leader_hint_ = net::kNoNode;
    Index commit_index_ = 0;
    Index last_applied_ = 0;
    std::map<net::NodeId, Index> next_index_;
    std::map<net::NodeId, Index> match_index_;
    /** advance_commit's per-member match indexes, kept between calls so
     *  an AppendEntries reply allocates nothing. */
    std::vector<Index> commit_match_;
    std::map<net::NodeId, bool> votes_;
    bool config_change_in_flight_ = false;

    sim::EventId election_timer_ = 0;
    sim::EventId heartbeat_timer_ = 0;
    /** Last time an AppendEntries/InstallSnapshot from a leader arrived. */
    sim::Time last_leader_contact_ = -(sim::Time{1} << 60);

    ApplyFn apply_;
    SnapshotFn snapshot_fn_;
    RestoreFn restore_fn_;
    RaftStats stats_{};
};

}  // namespace nbos::raft

#endif  // NBOS_RAFT_RAFT_HPP
