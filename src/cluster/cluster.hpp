/**
 * @file
 * The elastic server fleet: server registry plus cluster-wide aggregates
 * used by placement (dynamic SR cap, §3.4.1) and the auto-scaler (§3.4.2).
 *
 * The fleet totals (sum G, sum S, sum C) and a load-ordered index of the
 * servers are kept up to date as loads change: every subscribe,
 * unsubscribe, commit and release on a server notifies its cluster, so
 * the totals are O(1) reads and placement walks the least-loaded servers
 * first instead of sorting the fleet.
 */
#ifndef NBOS_CLUSTER_CLUSTER_HPP
#define NBOS_CLUSTER_CLUSTER_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/server.hpp"

namespace nbos::cluster {

/**
 * The subscription ratio sum(S) / (sum(G) * R) (§3.4.1) of a fleet with
 * @p subscribed_gpus subscribed over @p total_gpus; 0 when the fleet has
 * no GPUs or R < 1. A sharded run passes its fleet-wide sums.
 */
double subscription_ratio(std::int64_t subscribed_gpus,
                          std::int64_t total_gpus,
                          std::int32_t replicas_per_kernel);

/**
 * Registry of GPU servers. Servers can be added (scale-out) and removed
 * (scale-in) at runtime. Servers point back at their cluster, so a
 * cluster is neither copyable nor movable.
 *
 * Layout: parallel arrays (ids, nodes) kept in id order — ids are handed
 * out monotonically, so scale-out is a push_back and the autoscaler /
 * prewarmer / health-check window scans stream two dense arrays instead
 * of chasing map nodes; scale-in (rare) pays the O(n) erase. Ids start
 * at 1 and are never reused, so lookup indexes a server-by-id column in
 * which a removed server leaves nullptr.
 *
 * The load index holds one row per committed-GPU count and, within a
 * row, one bucket per subscribed-GPU count, each bucket the ids of the
 * servers with that load in id order. Walking rows, buckets and ids in
 * turn visits the servers least loaded first, and a load change moves
 * one id between two buckets.
 */
class Cluster
{
  public:
    /** Id-ordered iteration over the parallel arrays, yielding
     *  (ServerId, GpuServer*) pairs so range-for destructuring reads the
     *  same as it did over the old id -> server map. */
    class ServerView
    {
      public:
        class Iterator
        {
          public:
            Iterator(const ServerId* id,
                     const std::unique_ptr<GpuServer>* node)
                : id_(id), node_(node)
            {
            }
            std::pair<ServerId, GpuServer*> operator*() const
            {
                return {*id_, node_->get()};
            }
            Iterator& operator++()
            {
                ++id_;
                ++node_;
                return *this;
            }
            bool operator!=(const Iterator& other) const
            {
                return id_ != other.id_;
            }

          private:
            const ServerId* id_;
            const std::unique_ptr<GpuServer>* node_;
        };

        ServerView(const std::vector<ServerId>& ids,
                   const std::vector<std::unique_ptr<GpuServer>>& nodes)
            : ids_(ids), nodes_(nodes)
        {
        }
        Iterator begin() const { return {ids_.data(), nodes_.data()}; }
        Iterator end() const
        {
            return {ids_.data() + ids_.size(), nodes_.data() + nodes_.size()};
        }
        std::size_t size() const { return ids_.size(); }

      private:
        const std::vector<ServerId>& ids_;
        const std::vector<std::unique_ptr<GpuServer>>& nodes_;
    };

    explicit Cluster(ResourceSpec server_shape = ResourceSpec::server_8gpu());

    Cluster(const Cluster&) = delete;
    Cluster& operator=(const Cluster&) = delete;

    /** Provision one server of the default shape. */
    GpuServer& add_server();

    /** Provision one server of a custom shape. */
    GpuServer& add_server(const ResourceSpec& shape);

    /**
     * Remove a server, and its current load from the totals.
     * @return false if the id is unknown.
     */
    bool remove_server(ServerId id);

    /** The server with id @p id, or nullptr if there is none (removed or
     *  never handed out). */
    GpuServer* find(ServerId id)
    {
        return static_cast<std::uint64_t>(id) < by_id_.size()
                   ? by_id_[static_cast<std::size_t>(id)]
                   : nullptr;
    }
    const GpuServer* find(ServerId id) const
    {
        return static_cast<std::uint64_t>(id) < by_id_.size()
                   ? by_id_[static_cast<std::size_t>(id)]
                   : nullptr;
    }

    /** Number of provisioned servers. */
    std::size_t size() const { return ids_.size(); }

    /** Iterate over servers in id order. */
    ServerView servers() const { return {ids_, nodes_}; }

    /** The dense id column (id order; parallel to the node column). */
    const std::vector<ServerId>& ids() const { return ids_; }

    /**
     * Visit every server least loaded first — fewest committed GPUs, then
     * fewest subscribed, then lowest id — until @p visit, called with each
     * `const GpuServer&`, returns false.
     */
    template <typename Visit>
    void visit_by_load(Visit&& visit) const
    {
        for (const auto& row : load_) {
            for (const std::vector<ServerId>& bucket : row) {
                for (const ServerId id : bucket) {
                    if (!visit(*by_id_[static_cast<std::size_t>(id)])) {
                        return;
                    }
                }
            }
        }
    }

    /** Total GPUs across all servers (sum G). */
    std::int32_t total_gpus() const { return total_gpus_; }

    /** Total subscribed GPUs across all servers (sum S). */
    std::int32_t total_subscribed_gpus() const
    {
        return total_subscribed_gpus_;
    }

    /** Total exclusively committed GPUs across all servers (sum C). */
    std::int32_t total_committed_gpus() const
    {
        return total_committed_gpus_;
    }

    /** This fleet's subscription_ratio(sum(S), sum(G), R). */
    double cluster_subscription_ratio(std::int32_t replicas_per_kernel) const;

    /** The default server shape for scale-out. */
    const ResourceSpec& server_shape() const { return server_shape_; }

  private:
    friend class GpuServer;

    /** @p server's GPU load just changed from (@p old_committed,
     *  @p old_subscribed): update the totals and move its id between the
     *  two load buckets. */
    void on_load_change(const GpuServer& server, std::int32_t old_committed,
                        std::int32_t old_subscribed);

    /** The load bucket of (@p committed, @p subscribed), created empty on
     *  first use. Creating one may move the others. */
    std::vector<ServerId>& bucket(std::int32_t committed,
                                  std::int32_t subscribed);

    ResourceSpec server_shape_;
    std::vector<ServerId> ids_;
    std::vector<std::unique_ptr<GpuServer>> nodes_;
    /** Server by id; its size is the next id to hand out, and slot 0 (no
     *  server has id 0) and removed servers' slots hold nullptr. */
    std::vector<GpuServer*> by_id_{nullptr};
    /** The load index: load_[committed][subscribed] is an id-sorted
     *  bucket. */
    std::vector<std::vector<std::vector<ServerId>>> load_;
    std::int32_t total_gpus_ = 0;
    std::int32_t total_subscribed_gpus_ = 0;
    std::int32_t total_committed_gpus_ = 0;
};

/**
 * Bookkeeping for the pre-warmed container pool (§3.2.3). The Container
 * Prewarmer component in the Global Scheduler refills it; this class only
 * tracks availability per server.
 */
class PrewarmPool
{
  public:
    /** @param target_per_server warm containers to maintain per server. */
    explicit PrewarmPool(std::int32_t target_per_server);

    /** Track a newly provisioned server (starts with zero warm); no
     *  change if it is tracked already. @p id is a cluster id (>= 1). */
    void register_server(ServerId id);

    /** Forget a removed server. */
    void unregister_server(ServerId id);

    /** Warm containers currently available on @p server. */
    std::int32_t available(ServerId server) const;

    /** Warm containers being provisioned for @p server. */
    std::int32_t pending(ServerId server) const;

    /** Take one warm container; false if none available. */
    bool acquire(ServerId server);

    /** Record the start of a warm-container provisioning. */
    void begin_refill(ServerId server);

    /** Record a completed warm-container provisioning. */
    void complete_refill(ServerId server);

    /** Return a container to the pool (LCP policy returns after use). */
    void release(ServerId server);

    /** How many refills @p server needs to reach the target. */
    std::int32_t deficit(ServerId server) const;

    std::int32_t target_per_server() const { return target_per_server_; }

    /** Pool-wide counters. */
    std::uint64_t total_acquired() const { return total_acquired_; }
    std::uint64_t total_misses() const { return total_misses_; }

  private:
    struct State
    {
        std::int32_t available = 0;
        std::int32_t pending = 0;
        bool registered = false;
    };

    /** @p server's state, or nullptr if it is not registered. */
    State* find(ServerId server);
    const State* find(ServerId server) const;

    std::int32_t target_per_server_;
    /** Per-server state by id (cluster ids: small, dense, from 1). */
    std::vector<State> pools_;
    std::uint64_t total_acquired_ = 0;
    std::uint64_t total_misses_ = 0;
};

}  // namespace nbos::cluster

#endif  // NBOS_CLUSTER_CLUSTER_HPP
