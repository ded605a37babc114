/**
 * @file
 * A NotebookOS kernel replica (§3.2).
 *
 * Each distributed kernel consists of R (default 3) replicas spread across
 * GPU servers. Replicas share a Raft group; the executor-election protocol
 * (Fig. 5) and the state-synchronization protocol (Fig. 6) are implemented
 * as entries in the shared log, so every replica observes identical
 * decisions. Only the elected executor runs user code; standbys apply the
 * resulting namespace deltas.
 */
#ifndef NBOS_KERNEL_REPLICA_HPP
#define NBOS_KERNEL_REPLICA_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "cluster/server.hpp"
#include "kernel/protocol.hpp"
#include "kernel/state_sync.hpp"
#include "net/network.hpp"
#include "nblang/interpreter.hpp"
#include "raft/raft.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "storage/datastore.hpp"

namespace nbos::kernel {

/** Kernel-level tunables. */
struct KernelConfig
{
    /** Replicas per distributed kernel (the paper's R; 3 by default —
     *  5 costs too much, 2 is unsupported by Raft, §3.1). */
    std::int32_t replica_count = 3;
    /** Values at or above this footprint go to the data store (§3.2.4). */
    std::uint64_t large_object_threshold = 1024ULL * 1024ULL;
    /** Raft tunables for the replica group. */
    raft::RaftConfig raft{};
    /** Retry period when a Raft proposal cannot be placed (no leader). */
    sim::Time proposal_retry = 100 * sim::kMillisecond;
};

/**
 * One kernel replica. Owns its Raft node and its copy of the notebook
 * namespace; interacts with its host server through scheduler-provided
 * hooks so the kernel layer stays independent of scheduler policy.
 */
class KernelReplica
{
  public:
    /** Hooks the Local Scheduler installs. */
    struct Hooks
    {
        /** Try to exclusively commit resources on this replica's server. */
        std::function<bool(const cluster::ResourceSpec&)> try_commit;
        /** Release a previous commitment. */
        std::function<void(const cluster::ResourceSpec&)> release;
        /** Executor finished (reply path to Local/Global scheduler). */
        std::function<void(const ExecutionResult&)> on_result;
        /** This replica observed a failed election (all YIELD). */
        std::function<void(ElectionId)> on_election_failed;
        /** End-to-end small-state sync latency sample (Fig. 11 "Sync"). */
        std::function<void(sim::Time)> on_sync_latency;
    };

    /**
     * @param members Raft member ids of the whole group (must include
     *                @p raft_node_id).
     */
    KernelReplica(sim::Simulation& simulation, net::Network& network,
                  storage::DataStore& store, KernelConfig config,
                  cluster::KernelId kernel_id, std::int32_t replica_index,
                  net::NodeId raft_node_id,
                  std::vector<net::NodeId> members, sim::Rng rng);

    /** Start as a founding member of the group. */
    void start();

    /** Start passively (migrated replica joining an existing group). */
    void start_passive();

    /** Fail-stop crash / termination. */
    void stop();

    /** Recover after stop(): volatile protocol state resets; the durable
     *  Raft log/snapshot rebuild the namespace. */
    void restart();

    bool running() const { return running_; }

    /** Install the scheduler hooks (must precede any requests). */
    void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }

    /** Deliver an execute/yield request (Local Scheduler, step 4). */
    void handle_execute_request(const ExecuteRequest& request);

    /** Serialize the full namespace for a migration checkpoint. */
    std::string checkpoint_state() const;

    /** Restore namespace from a checkpoint (migrated replica). */
    void restore_state(const std::string& checkpoint);

    /** @name Introspection */
    ///@{
    cluster::KernelId kernel_id() const { return kernel_id_; }
    std::int32_t replica_index() const { return replica_index_; }
    raft::RaftNode& raft() { return *raft_; }
    const raft::RaftNode& raft() const { return *raft_; }
    const nblang::Namespace& ns() const { return ns_; }
    /** Variables whose bytes are not resident (pointer state). */
    const std::set<std::string>& non_resident() const
    {
        return non_resident_;
    }
    /** Replica index of the most recent executor (from DONE entries). */
    std::int32_t last_executor() const { return last_executor_; }
    /** True while an election/execution/sync is in flight on this replica
     *  (cell executions are serial within a kernel). */
    bool busy() const { return current_election_ != 0; }
    std::uint64_t executions() const { return executions_; }
    ///@}

  private:
    struct ElectionState
    {
        ExecuteRequest request;
        sim::Time received_at = 0;
        sim::Time election_started_at = 0;
        bool participated = false;   ///< this replica proposed
        bool reserved = false;       ///< GPUs committed at proposal time
        bool committed_immediately = false;
        std::set<std::int32_t> proposals_seen;
        std::int32_t winner = -1;
        bool decided = false;
        bool voted = false;
        bool failed_notified = false;
        bool done = false;
    };

    void on_apply(const raft::LogEntry& entry);
    void on_lead_or_yield(const KernelLogEntry& entry);
    void on_done(const KernelLogEntry& entry);
    void on_sync(const KernelLogEntry& entry);
    void propose_with_retry(std::string payload);
    /**
     * Reliable proposal: re-propose every proposal_retry period until
     * @p applied reports that the entry was observed in the applied log.
     * Raft forwards follower proposals at-most-once, so leader churn can
     * drop one; protocol applies are idempotent, making retries safe.
     */
    void propose_reliable(std::string payload,
                          std::function<bool()> applied);
    void start_election(const ExecuteRequest& request);
    void begin_execution(ElectionId id);
    void run_user_code(ElectionId id);
    void finish_execution(ElectionId id, const nblang::Effect& effect,
                          ExecutionStatus status, const std::string& error);
    void replicate_state(ElectionId id, const nblang::Effect& effect);
    void complete_sync(ElectionId id);
    void drain_queue();
    ElectionState& election(ElectionId id);
    std::string raft_snapshot() const;
    void raft_restore(const std::string& snapshot);

    sim::Simulation& simulation_;
    net::Network& network_;
    storage::DataStore& store_;
    KernelConfig config_;
    cluster::KernelId kernel_id_;
    std::int32_t replica_index_;
    sim::Rng rng_;
    Hooks hooks_;

    std::unique_ptr<raft::RaftNode> raft_;
    nblang::Namespace ns_;
    std::set<std::string> non_resident_;
    std::map<ElectionId, ElectionState> elections_;
    std::deque<ExecuteRequest> queue_;
    bool running_ = false;
    /** Election currently in flight on this replica (0 = idle). */
    ElectionId current_election_ = 0;
    /** True while user code is running on this replica. */
    bool executing_ = false;
    std::int32_t last_executor_ = -1;
    std::uint64_t executions_ = 0;
    sim::Time sync_proposed_at_ = 0;
    ElectionId syncing_election_ = 0;
    /** Elections whose own SYNC already applied in this run (dedup for
     *  reliable-proposal retries; cleared on restart so log replay still
     *  rebuilds state). */
    std::set<ElectionId> own_syncs_applied_;
    ExecutionResult current_result_{};
};

}  // namespace nbos::kernel

#endif  // NBOS_KERNEL_REPLICA_HPP
