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
#include "sched/session_table.hpp"
#include "sched/shard_router.hpp"
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
    using StartKernelCallback =
        std::function<void(cluster::KernelId, bool ok)>;

    SchedulerShard(sim::Simulation& simulation, SchedulerConfig config,
                   std::uint64_t seed, ShardIdentity identity = {});
    ~SchedulerShard();

    SchedulerShard(const SchedulerShard&) = delete;
    SchedulerShard& operator=(const SchedulerShard&) = delete;

    /** Provision the shard's initial fleet and start periodic services. */
    void start();

    /**
     * Create a distributed kernel with @p spec (§3.2.1). The callback
     * fires once all replicas run and their Raft group has a leader, or
     * with ok=false if placement ultimately failed.
     * @return the kernel id (allocated synchronously from this shard's
     * disjoint id stride; also passed to the callback).
     */
    cluster::KernelId start_kernel(const cluster::ResourceSpec& spec,
                                   StartKernelCallback callback);

    /** Terminate a kernel and release what it holds: its replicas'
     *  subscriptions and containers, and the placeholder container a
     *  replica move in flight holds on its target. */
    void stop_kernel(cluster::KernelId kernel_id);

    /**
     * Submit a cell for execution on @p kernel_id (the Fig. 5 flow).
     * @param submitted_at client-side submission timestamp.
     */
    void submit_execute(cluster::KernelId kernel_id, std::string code,
                        bool is_gpu, sim::Time submitted_at,
                        ExecuteCallback callback);

    /** @name Session-addressed API (routing layer)
     *
     * The prototype engine's driver addresses all work by session id and
     * lets the shard own the session -> kernel binding, so a whole
     * session — its kernel state, queued work, and bookkeeping — can
     * migrate between shards at a window boundary
     * (sched::SessionRouter::rebalance) without the driver tracking
     * kernel ids.
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

    /** Admit @p session: create its kernel and bind it to the session id.
     *  Cells submitted before the kernel is ready are buffered in-shard
     *  and drained on creation. */
    void begin_session(std::int64_t session,
                       const cluster::ResourceSpec& spec);

    /** Submit a cell addressed by session id (buffered until the
     *  session's kernel is ready).
     *  @return false when the cell was dropped — session unknown, ended,
     *  or its kernel creation failed; such cells never produce an
     *  outcome. */
    bool submit_session(std::int64_t session, std::string code,
                        bool is_gpu, sim::Time submitted_at,
                        ExecuteCallback callback);

    /** End @p session: stop its kernel (now or when creation finishes)
     *  and drop any still-buffered work. */
    void end_session(std::int64_t session);

    /** True when @p session can migrate right now: kernel fully created,
     *  alive, and with no replica move in flight (a migrating replica and
     *  the cell it reruns, or a repaired replica, are mid-move inside this
     *  shard). */
    bool session_movable(std::int64_t session) const;

    /** Pack @p session for a cross-shard move: checkpoint its kernel
     *  from the first live replica, collect pending + buffered work in
     *  submission order, stop the kernel, and erase the binding.
     *  @return false (leaving the session untouched) if it is not
     *  movable. Call only between windows, from the driving thread. */
    bool extract_session(std::int64_t session, SessionExtract& out);

    /** Adopt an extracted session: rebind it, start a kernel here,
     *  restore the checkpointed namespace into every replica, and
     *  resubmit the carried work in order. Call only between windows. */
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
    /** Access a replica (tests / fault injection). */
    kernel::KernelReplica* replica(cluster::KernelId kernel_id,
                                   std::int32_t index);
    /** Crash a replica (fail-stop); the health checker will replace it. */
    void inject_replica_failure(cluster::KernelId kernel_id,
                                std::int32_t index);
    /** Network delivery stats (chaos observability). */
    const net::NetworkStats& network_stats() const
    {
        return network_.stats();
    }
    /** Number of kernels still alive. */
    std::size_t live_kernels() const;
    /**
     * True when the shard owes no cell an outcome: no live kernel has a
     * pending execution, no reply is on its way to a client, no session
     * that has not failed holds buffered cells, and no kernel creation or
     * server provisioning is in flight. Cells dropped by end_session or
     * stop_kernel, and cells stranded by a failed kernel creation, never
     * get an outcome and so count as settled. What runs after this turns
     * true is idle upkeep (Raft heartbeats, health checks, auto-scaler
     * and pre-warm ticks), which no cell's outcome depends on.
     */
    bool settled() const;
    /** Device ids currently bound to a replica's execution (§3.3). */
    std::vector<std::int32_t> bound_devices(cluster::KernelId kernel_id,
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

    struct KernelRecord
    {
        cluster::KernelId id = cluster::kNoKernel;
        cluster::ResourceSpec spec{};
        std::vector<ReplicaSlot> slots;
        kernel::ElectionId next_election = 1;
        std::map<kernel::ElectionId, PendingExecution> pending;
        std::set<kernel::ElectionId> failed_seen;
        std::optional<Move> move;
        bool alive = true;
        /** True once all replicas started and the group elected a leader
         *  (gates the health checker). */
        bool created = false;
        /** See PendingKernel::count_created. */
        bool count_created = true;
    };

    struct PendingKernel
    {
        cluster::KernelId id;
        cluster::ResourceSpec spec;
        StartKernelCallback callback;
        bool scale_out_requested = false;
        /** False for kernels re-created by a cross-shard session
         *  adoption: the session's kernel was already counted (and its
         *  kKernelCreated event recorded) where it first placed, so
         *  merged totals stay independent of the routing policy. */
        bool count_created = true;
    };

    /** Session -> kernel binding plus pre-creation buffering (the
     *  session-addressed API only; kernels started through start_kernel
     *  have none). This is the cold column of the SoA SessionTable; the
     *  hot per-window state (window weight, created/failed/ended flags)
     *  lives in the table's parallel arrays so the boundary scans never
     *  touch this record. */
    struct SessionRecord
    {
        cluster::KernelId kernel = cluster::kNoKernel;
        cluster::ResourceSpec spec{};
        /** Cells awaiting kernel creation. */
        std::deque<CarriedExecution> buffered;
    };

    /** SessionTable flag bits. */
    static constexpr std::uint8_t kSessionCreated = 1;
    static constexpr std::uint8_t kSessionFailed = 2;
    static constexpr std::uint8_t kSessionEnded = 4;

    cluster::KernelId start_kernel_internal(const cluster::ResourceSpec& spec,
                                            StartKernelCallback callback,
                                            bool count_created);
    /** Creation callback shared by begin_session and adopt_session:
     *  binds the kernel, restores @p checkpoint (adoptions), and drains
     *  the session's buffered work. */
    void on_session_kernel(std::int64_t session, cluster::KernelId kernel,
                           bool ok, const std::string& checkpoint);
    void provision_server(SchedulerEvent::Kind reason);
    void try_place_pending_kernels();
    void place_kernel(PendingKernel pending,
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
    SessionTable<SessionRecord> sessions_;
    std::deque<PendingKernel> pending_kernels_;
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
