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

#include <map>
#include <memory>
#include <set>
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

/** One server's place in the load index: its load as of its last change. */
struct LoadEntry
{
    std::int32_t committed_gpus = 0;
    std::int32_t subscribed_gpus = 0;
    ServerId id = kNoServer;
    const GpuServer* server = nullptr;
};

/** Least loaded first: fewest committed GPUs, then fewest subscribed,
 *  then lowest id — a total order, so the index is deterministic. */
struct LoadOrder
{
    bool operator()(const LoadEntry& a, const LoadEntry& b) const
    {
        if (a.committed_gpus != b.committed_gpus) {
            return a.committed_gpus < b.committed_gpus;
        }
        if (a.subscribed_gpus != b.subscribed_gpus) {
            return a.subscribed_gpus < b.subscribed_gpus;
        }
        return a.id < b.id;
    }
};

/** Every server of a cluster in LoadOrder. */
using LoadIndex = std::set<LoadEntry, LoadOrder>;

/**
 * Registry of GPU servers. Servers can be added (scale-out) and removed
 * (scale-in) at runtime. Servers point back at their cluster, so a
 * cluster is neither copyable nor movable.
 *
 * Layout: parallel arrays (ids, nodes) kept in id order — ids are handed
 * out monotonically, so scale-out is a push_back and the autoscaler /
 * prewarmer / health-check window scans stream two dense arrays instead
 * of chasing map nodes. Lookup is a binary search on the contiguous id
 * column; scale-in (rare) pays the O(n) erase.
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

    GpuServer* find(ServerId id);
    const GpuServer* find(ServerId id) const;

    /** Number of provisioned servers. */
    std::size_t size() const { return ids_.size(); }

    /** Iterate over servers in id order. */
    ServerView servers() const { return {ids_, nodes_}; }

    /** The dense id column (id order; parallel to the node column). */
    const std::vector<ServerId>& ids() const { return ids_; }

    /** Every server, least loaded first (LoadOrder). */
    const LoadIndex& by_load() const { return by_load_; }

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
     *  @p old_subscribed): update the totals and move it within the
     *  index, reusing its node (no allocation). */
    void on_load_change(const GpuServer& server, std::int32_t old_committed,
                        std::int32_t old_subscribed);

    /** Index of @p id in the parallel arrays, or npos. */
    std::size_t index_of(ServerId id) const;

    static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

    ResourceSpec server_shape_;
    ServerId next_id_ = 1;
    std::vector<ServerId> ids_;
    std::vector<std::unique_ptr<GpuServer>> nodes_;
    LoadIndex by_load_;
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

    /** Track a newly provisioned server (starts with zero warm). */
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
    };

    std::int32_t target_per_server_;
    std::map<ServerId, State> pools_;
    std::uint64_t total_acquired_ = 0;
    std::uint64_t total_misses_ = 0;
};

}  // namespace nbos::cluster

#endif  // NBOS_CLUSTER_CLUSTER_HPP
