/**
 * @file
 * One scheduler shard: the complete per-server/per-session scheduling
 * engine previously embedded in the monolithic Global Scheduler — kernel
 * creation, execute routing through per-server Local Schedulers, yield
 * conversion, migration on failed elections (§3.2.3), the pre-warmed
 * container pool, replica failure detection (§3.2.5), and the §3.4.2
 * auto-scaler — owning a disjoint slice of the fleet and of the session
 * space.
 *
 * A shard shares no mutable state with its siblings: it has its own
 * network, cluster slice, pre-warm pool, data store, placement policy,
 * and RNG streams, and it advances exclusively on the sim::Simulation it
 * was constructed with. That isolation is what lets the prototype
 * engine's driver (core/protosim.cpp) run its shards' event loops on
 * parallel sim::Lockstep threads with results bit-identical to a serial
 * sweep.
 *
 * The shard's only address is the session. A notebook session owns one
 * distributed kernel, created when the session starts (§3.2.1), and the
 * shard keeps both in one KernelRecord bound by session id: begin_session
 * and adopt_session open it, cells submitted before the kernel is created
 * wait in it, and kernel_ready submits them once the replicas run under a
 * leader — or stops the kernel if its session ended meanwhile.
 *
 * Moving a replica — a §3.2.3 migration or a §3.2.5 repair — is one
 * sequence over one record: begin_move persists a checkpoint, place_move
 * picks a target (sched::pick_target) and reserves a container there,
 * swap_member removes the old Raft member and starts the new replica, and
 * join_moved_replica adds it to the group; a migration then reruns its
 * cell. reserve_container and release_slot keep a server's subscriptions
 * and containers equal to its replicas', and poll drives every wait on the
 * Raft group. A kernel has at most one move in flight, held in its record:
 * the health checker skips a kernel that has one, so it never repairs a
 * slot twice, and stop_kernel releases exactly what the kernel holds at
 * any step of it.
 */
#ifndef NBOS_SCHED_SHARD_HPP
#define NBOS_SCHED_SHARD_HPP

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chaos/controller.hpp"
#include "cluster/cluster.hpp"
#include "kernel/replica.hpp"
#include "metrics/percentiles.hpp"
#include "net/network.hpp"
#include "sched/placement.hpp"
#include "sched/scheduler_types.hpp"
#include "sched/routing.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "storage/datastore.hpp"

namespace nbos::sched {

/**
 * The per-shard Global Scheduler engine plus the per-server Local
 * Scheduler logic. (Local Schedulers are thin per-server agents; their
 * provisioning and forwarding behaviour is modelled here with explicit
 * hop/processing delays.)
 */
class SchedulerShard
{
  public:
    using ExecuteCallback = std::function<void(
        const kernel::ExecutionResult&, const RequestTrace&)>;

    SchedulerShard(sim::Simulation& simulation, SchedulerConfig config,
                   std::uint64_t seed, ShardIdentity identity = {});
    ~SchedulerShard();

    SchedulerShard(const SchedulerShard&) = delete;
    SchedulerShard& operator=(const SchedulerShard&) = delete;

    /** Provision the shard's initial fleet and start periodic services. */
    void start();

    /** @name Session-addressed API
     *
     * All work is addressed by session id and the shard owns the
     * session -> kernel binding, so a whole session — its kernel state,
     * queued work, and bookkeeping — can migrate between shards at a
     * window boundary (sched::SessionRouter::rebalance) without the
     * driver tracking kernel ids.
     */
    ///@{
    /** One queued cell travelling with a migrating session. */
    struct CarriedExecution
    {
        std::string code;
        bool is_gpu = true;
        sim::Time submitted_at = 0;
        ExecuteCallback callback;
    };

    /** A whole session packed for a cross-shard move: resource spec,
     *  the kernel's checkpointed namespace, and every queued cell (in
     *  submission order) that had not completed when the window closed. */
    struct SessionExtract
    {
        std::int64_t session = -1;
        cluster::ResourceSpec spec{};
        std::string checkpoint;
        std::vector<CarriedExecution> work;
    };

    /** Admit @p session: bind it to a new kernel, created once placed
     *  (§3.2.1). Cells submitted before then wait in the shard and are
     *  submitted, in order, on creation. */
    void begin_session(std::int64_t session,
                       const cluster::ResourceSpec& spec);

    /** Submit a cell (the Fig. 5 flow) to @p session's kernel, or hold
     *  it until the kernel is created.
     *  @param submitted_at client-side submission timestamp.
     *  @return false when the cell was refused — session unknown or
     *  ended; such cells never produce an outcome. */
    bool submit_session(std::int64_t session, std::string code,
                        bool is_gpu, sim::Time submitted_at,
                        ExecuteCallback callback);

    /** End @p session: drop its held cells and stop its kernel, now or
     *  once created. The session stays bound, refusing further cells. */
    void end_session(std::int64_t session);

    /** True when @p session can migrate right now: kernel fully created,
     *  alive, and with no replica move in flight (a migrating replica and
     *  the cell it reruns, or a repaired replica, are mid-move inside this
     *  shard). */
    bool session_movable(std::int64_t session) const;

    /** Pack @p session for a cross-shard move: checkpoint its kernel
     *  from the first live replica, collect its pending work in
     *  submission order, stop the kernel, and erase the binding.
     *  @return false (leaving the session untouched) if it is not
     *  movable. Call only between windows, from the driving thread. */
    bool extract_session(std::int64_t session, SessionExtract& out);

    /** Adopt an extracted session: bind it to a new kernel here, which
     *  on creation restores the checkpointed namespace into every replica
     *  and resubmits the carried work in order. Call only between
     *  windows. */
    void adopt_session(SessionExtract extract);

    /** Sessions currently bound here (live, not ended). */
    std::size_t session_count() const;

    /** Report this shard's closing-window load — summed per-session cell
     *  weight into @p load, plus one SessionLoad per session that
     *  submitted work this window — and reset the window counters.
     *  Deterministic: sessions are visited in id order. */
    void harvest_window_load(ShardLoad& load,
                             std::vector<SessionLoad>& sessions);
    ///@}

    /** @name Introspection */
    ///@{
    sim::Simulation& simulation() { return simulation_; }
    const ShardIdentity& identity() const { return identity_; }
    cluster::Cluster& cluster() { return cluster_; }
    const cluster::Cluster& cluster() const { return cluster_; }
    const SchedulerStats& stats() const { return stats_; }
    /** Load-index entries this shard's placements examined so far. Not
     *  in SchedulerStats: it depends on each shard's fleet, so it is not
     *  invariant across shard counts. */
    std::uint64_t placement_servers_examined() const
    {
        return placement_.servers_examined();
    }
    const std::vector<SchedulerEvent>& events() const { return events_; }
    storage::DataStore& store() { return *store_; }
    const storage::DataStore& store() const { return *store_; }
    const metrics::Percentiles& sync_latencies_ms() const
    {
        return sync_latencies_ms_;
    }
    double cluster_sr() const;
    /** The kernel bound to @p session (kNoKernel if none). */
    cluster::KernelId kernel_of(std::int64_t session) const;
    /** Replica @p index of @p session's kernel, or null (tests). */
    kernel::KernelReplica* replica(std::int64_t session, std::int32_t index);
    /** Crash a replica (fail-stop); the health checker will replace it. */
    void inject_replica_failure(std::int64_t session, std::int32_t index);
    /** Network delivery stats (chaos observability). */
    const net::NetworkStats& network_stats() const
    {
        return network_.stats();
    }
    /**
     * True when the shard owes no cell an outcome: every live kernel is
     * created and has no pending execution, no reply is on its way to a
     * client, and no server provisioning is in flight. Cells end_session
     * drops never get an outcome. What runs once this holds is idle upkeep
     * (Raft heartbeats, health checks, auto-scaler and pre-warm ticks),
     * which no cell's outcome depends on.
     */
    bool settled() const;
    /** Device ids bound to replica @p index's execution (§3.3). */
    std::vector<std::int32_t> bound_devices(std::int64_t session,
                                            std::int32_t index);
    ///@}

  private:
    struct ReplicaSlot
    {
        std::unique_ptr<kernel::KernelReplica> replica;
        cluster::ServerId server = cluster::kNoServer;
        cluster::ContainerId container = -1;
        bool alive = false;
        /** GPU device ids bound to the replica's current execution
         *  (§3.3: embedded in the request metadata by the GS). */
        std::vector<std::int32_t> bound_devices;
    };

    struct PendingExecution
    {
        std::string code;
        bool is_gpu = true;
        RequestTrace trace;
        ExecuteCallback callback;
        std::int32_t migration_retries = 0;
    };

    /** A replica move in flight (at most one per kernel): a §3.2.3
     *  migration or a §3.2.5 repair. */
    struct Move
    {
        /** The slot that moves. */
        std::int32_t slot = -1;
        /** The failed election whose cell the moved replica reruns; 0 for
         *  a repair, which reruns nothing (elections start at 1). */
        kernel::ElectionId election = 0;
        /** The namespace persisted before the move (empty if the group
         *  had no live replica). */
        std::string checkpoint;
        cluster::ServerId target = cluster::kNoServer;
        /** True while a placeholder container on the target holds the
         *  slot's container id, with no subscription: from the old slot's
         *  release until the new replica subscribes there. The slot still
         *  names its old server meanwhile. */
        bool reserved = false;
    };

    /** A session's kernel, from the session's start: waiting for
     *  placement, being created, then serving cells until stopped. Every
     *  record opened here stays in kernels_; a stopped one is not alive. */
    struct KernelRecord
    {
        cluster::KernelId id = cluster::kNoKernel;
        cluster::ResourceSpec spec{};
        std::vector<ReplicaSlot> slots;
        kernel::ElectionId next_election = 1;
        std::map<kernel::ElectionId, PendingExecution> pending;
        std::set<kernel::ElectionId> failed_seen;
        std::optional<Move> move;
        /** Cells submitted before creation, in submission order. */
        std::deque<CarriedExecution> buffered;
        /** An adopted session's namespace, restored on creation. */
        std::string checkpoint;
        /** Cells its session submitted this window. */
        std::uint64_t window_weight = 0;
        bool alive = true;
        /** True once all replicas started and the group elected a leader
         *  (gates the health checker). */
        bool created = false;
        /** True once its session ended: its cells are refused. */
        bool ended = false;
        /** False for a kernel re-created by a cross-shard session
         *  adoption: the session's kernel was already counted (and its
         *  kKernelCreated event recorded) where it first placed, so
         *  merged totals stay independent of the routing policy. */
        bool count_created = true;
        /** A failed placement of this waiting kernel asked for servers. */
        bool scale_out_requested = false;
    };

    /** Bind @p session to a new kernel with the next id of this shard's
     *  stride and queue it for placement. */
    KernelRecord& open_kernel(std::int64_t session,
                              const cluster::ResourceSpec& spec,
                              bool count_created);
    /** @p record's replicas run under a leader: count the kernel, restore
     *  an adoption's checkpoint, then stop the kernel if its session ended
     *  or submit its buffered cells in order. */
    void kernel_ready(KernelRecord& record);
    /** Terminate a created kernel: release its replicas' subscriptions and
     *  containers and a move's placeholder on its target, and drop its
     *  pending cells without a reply. */
    void stop_kernel(KernelRecord& record);
    void submit_execute(KernelRecord& record, std::string code, bool is_gpu,
                        sim::Time submitted_at, ExecuteCallback callback);
    /** The record bound to @p session (null if none). */
    KernelRecord* session_kernel(std::int64_t session);
    void provision_server(SchedulerEvent::Kind reason);
    void try_place_waiting_kernels();
    void place_kernel(KernelRecord& record,
                      const std::vector<cluster::ServerId>& servers);
    void create_replica(KernelRecord& record, std::int32_t index,
                        cluster::ServerId server, bool passive);
    void install_hooks(KernelRecord& record, std::int32_t index);
    void dispatch_execution(KernelRecord& record, kernel::ElectionId id,
                            std::int32_t designated);
    void on_result(cluster::KernelId kernel_id,
                   const kernel::ExecutionResult& result);
    void on_election_failed(cluster::KernelId kernel_id,
                            kernel::ElectionId election);
    /** Migrate the replica on the most GPU-saturated server to rerun
     *  @p election's cell (§3.2.3). */
    void begin_migration(cluster::KernelId kernel_id,
                         kernel::ElectionId election);
    void abort_execution(cluster::KernelId kernel_id,
                         kernel::ElectionId election,
                         const std::string& reason);
    /** Deliver @p pending's reply to its client @p delay from now. */
    void send_reply(sim::Time delay, kernel::ExecutionResult result,
                    PendingExecution pending);
    void run_autoscaler();
    void run_prewarmer();
    void run_health_check();
    void install_chaos();
    std::vector<std::pair<cluster::KernelId, std::int32_t>>
    chaos_live_replicas() const;
    net::NodeId chaos_resolve_endpoint(std::uint32_t slot);
    bool chaos_crash_replica(std::uint32_t slot);
    bool chaos_restart_replica(std::uint32_t slot);
    std::int32_t pick_designated(const KernelRecord& record) const;
    sim::Time sample(sim::Time lo, sim::Time hi);
    void record_event(SchedulerEvent::Kind kind);

    /** @name Replica-move steps */
    ///@{
    /** Start moving slot @p slot of @p record (its only move): persist
     *  @p source's namespace, or nothing if @p source is null, then
     *  place_move. @p election is the cell to rerun, 0 for a repair. */
    void begin_move(KernelRecord& record, std::int32_t slot,
                    kernel::ElectionId election,
                    const kernel::KernelReplica* source);
    /** Pick the move's target, release the old slot, reserve a
     *  placeholder on the target and wait for its container. */
    void place_move(cluster::KernelId kernel_id);
    /** Retire the old replica, remove it from the group, then subscribe
     *  the target, create the new replica and read the checkpoint. */
    void swap_member(cluster::KernelId kernel_id);
    /** Restore the checkpoint, add the new replica to the group and, for a
     *  migration, rerun its cell. */
    void join_moved_replica(cluster::KernelId kernel_id);
    /** Clear @p record's move, first removing its placeholder from the
     *  target if it still holds one. @return the move's election. */
    kernel::ElectionId end_move(KernelRecord& record);
    /** The record of @p kernel_id if it exists and is alive, else null. */
    KernelRecord* live_kernel(cluster::KernelId kernel_id);
    /** The replica of the first live slot (null if none). */
    static kernel::KernelReplica* first_live(const KernelRecord& record);
    /** The last live replica that believes it leads (null if none). */
    static raft::RaftNode* leader(const KernelRecord& record);
    /** Each slot's server, kNoServer where the slot is not live. */
    static std::vector<cluster::ServerId>
    live_servers(const KernelRecord& record);
    /** Add a container for @p record on @p server and point slot
     *  @p index at it. The slot's server is left as it is. */
    void reserve_container(KernelRecord& record, std::int32_t index,
                           cluster::ServerId server);
    /** Unsubscribe slot @p index's server and remove its container, if
     *  that container is on the slot's server. */
    void release_slot(KernelRecord& record, std::int32_t index);
    /** Stop the slot's replica, if any, and mark the slot not live. */
    void retire_replica(ReplicaSlot& slot);
    /** Time to get a container on @p server: a pre-warmed one if its
     *  pool has one, else a cold start. */
    sim::Time container_delay(cluster::ServerId server);
    /** One step of a wait on a Raft group: gets how many times it ran
     *  before, returns true when the wait is over. */
    using PollStep = std::function<bool(int tries)>;
    /** Run @p step now and, while it returns false, again 200 ms after
     *  each run. */
    void poll(PollStep step, int tries = 0);
    ///@}

    sim::Simulation& simulation_;
    SchedulerConfig config_;
    ShardIdentity identity_;
    std::uint64_t seed_;
    sim::Rng rng_;
    net::Network network_;
    cluster::Cluster cluster_;
    cluster::PrewarmPool prewarm_;
    std::unique_ptr<storage::DataStore> store_;
    LeastLoadedPolicy placement_;

    std::map<cluster::KernelId, KernelRecord> kernels_;
    /** Every session bound here, ended ones included, in id order. */
    std::map<std::int64_t, cluster::KernelId> sessions_;
    /** Kernels waiting for placement, in the order they were opened. */
    std::deque<cluster::KernelId> waiting_;
    std::vector<std::unique_ptr<kernel::KernelReplica>> graveyard_;
    cluster::KernelId next_kernel_id_;
    cluster::ContainerId next_container_id_ = 1;
    net::NodeId next_raft_id_ = 1000;
    std::int32_t servers_provisioning_ = 0;
    /** Replies send_reply has scheduled but not yet delivered: the cell
     *  has left `pending` but its client has no reply. */
    std::int32_t replies_in_flight_ = 0;

    SchedulerStats stats_;
    std::vector<SchedulerEvent> events_;
    metrics::Percentiles sync_latencies_ms_;
    bool started_ = false;

    /** Chaos tier (null unless SchedulerConfig::chaos.enabled). */
    std::unique_ptr<chaos::ChaosController> chaos_;
    /** Replicas downed by a chaos kCrash, keyed by the fault's replica
     *  slot, so the matching kRestart revives the same replica (unless the
     *  health checker already replaced it). */
    std::map<std::uint32_t, std::pair<cluster::KernelId, std::int32_t>>
        chaos_downed_;
};

}  // namespace nbos::sched

#endif  // NBOS_SCHED_SHARD_HPP
