/**
 * @file
 * GPU server and container models.
 *
 * A GpuServer tracks two independent resource views, mirroring §3.2.1 and
 * §3.4 of the paper:
 *  - *subscriptions*: resources requested by resident kernel replicas.
 *    Replicas "subscribe" without exclusivity; the subscription ratio
 *    SR = S / (G * R) drives placement decisions.
 *  - *commitments*: resources exclusively bound to a replica while it is
 *    executing a cell (dynamic GPU binding, §3.3).
 */
#ifndef NBOS_CLUSTER_SERVER_HPP
#define NBOS_CLUSTER_SERVER_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/resources.hpp"
#include "sim/time.hpp"

namespace nbos::cluster {

/** Identifier of a GPU server. */
using ServerId = std::int64_t;
/** Identifier of a container. */
using ContainerId = std::int64_t;
/** Identifier of a distributed kernel. */
using KernelId = std::int64_t;

class Cluster;

/** Sentinel ids. */
inline constexpr ServerId kNoServer = -1;
inline constexpr KernelId kNoKernel = -1;

/**
 * A kernel-replica container resident on one server. A server with no
 * containers is idle (the auto-scaler may release it); a migration's
 * placeholder on its target is a container too, so that server stays.
 */
struct Container
{
    ContainerId id = -1;
    ServerId server = kNoServer;
    KernelId kernel = kNoKernel;
};

/** Provisioning / data-movement latencies for containers and GPU binding. */
struct ContainerTimings
{
    /** On-demand (cold) container provisioning: image pull + start. */
    sim::Time cold_start_min = 8 * sim::kSecond;
    sim::Time cold_start_max = 25 * sim::kSecond;
    /** Assigning a pre-warmed container to a kernel replica. */
    sim::Time prewarm_assign = 350 * sim::kMillisecond;
    /** Host-mem -> VRAM model load on the execution critical path (§3.3,
     *  "typically only takes up to a couple hundred milliseconds"). */
    sim::Time gpu_bind_min = 80 * sim::kMillisecond;
    sim::Time gpu_bind_max = 250 * sim::kMillisecond;
    /** VRAM -> host-mem copy after execution. */
    sim::Time gpu_unbind_min = 40 * sim::kMillisecond;
    sim::Time gpu_unbind_max = 150 * sim::kMillisecond;
};

/**
 * One GPU server. Pure bookkeeping: all timing behaviour lives in the
 * Local/Global schedulers. A server added through Cluster::add_server
 * reports every subscription and commitment change to its cluster (fleet
 * totals, load index); a standalone server has no owner. Its cluster
 * holds its address, so a server is neither copyable nor movable.
 */
class GpuServer
{
  public:
    GpuServer(ServerId id, ResourceSpec capacity);

    GpuServer(const GpuServer&) = delete;
    GpuServer& operator=(const GpuServer&) = delete;

    ServerId id() const { return id_; }
    const ResourceSpec& capacity() const { return capacity_; }

    /** @name Subscriptions (non-exclusive reservations) */
    ///@{
    void subscribe(const ResourceSpec& spec);
    void unsubscribe(const ResourceSpec& spec);
    std::int32_t subscribed_gpus() const { return subscribed_.gpus; }
    const ResourceSpec& subscribed() const { return subscribed_; }
    ///@}

    /** @name Exclusive commitments (during cell execution) */
    ///@{
    /** True if the uncommitted remainder can hold @p spec. */
    bool can_commit(const ResourceSpec& spec) const;

    /**
     * Exclusively bind @p spec.
     * @return false (no change) if it does not fit.
     */
    bool commit(const ResourceSpec& spec);

    /** Release a previous commitment. */
    void release(const ResourceSpec& spec);

    /**
     * Exclusively bind @p spec and assign concrete GPU device ids (§3.3:
     * the Global Scheduler embeds the device ids of the allocated GPUs in
     * the request metadata). Lowest free ids are assigned first.
     * @return the device ids, or std::nullopt if the spec does not fit.
     */
    std::optional<std::vector<std::int32_t>>
    commit_devices(const ResourceSpec& spec);

    /** Release a commitment made with commit_devices(). */
    void release_devices(const ResourceSpec& spec,
                         const std::vector<std::int32_t>& devices);

    /** True if GPU device @p id is currently assigned. */
    bool device_in_use(std::int32_t id) const;

    std::int32_t committed_gpus() const { return committed_.gpus; }
    std::int32_t idle_gpus() const
    {
        return capacity_.gpus - committed_.gpus;
    }
    const ResourceSpec& committed() const { return committed_; }
    ///@}

    /** @name Containers */
    ///@{
    void add_container(const Container& container);
    void remove_container(ContainerId id);
    Container* find_container(ContainerId id);
    const std::map<ContainerId, Container>& containers() const
    {
        return containers_;
    }
    ///@}

  private:
    friend class Cluster;

    /** Tell the owning cluster, if any, that the GPU load changed from
     *  (@p old_committed, @p old_subscribed). */
    void notify_owner(std::int32_t old_committed,
                      std::int32_t old_subscribed);

    ServerId id_;
    ResourceSpec capacity_;
    /** Per-device busy flags (index = CUDA-style device id). */
    std::vector<bool> device_busy_;
    ResourceSpec subscribed_{0, 0, 0, 0.0};
    ResourceSpec committed_{0, 0, 0, 0.0};
    std::map<ContainerId, Container> containers_;
    /** The cluster this server belongs to (set by Cluster::add_server). */
    Cluster* owner_ = nullptr;
};

}  // namespace nbos::cluster

#endif  // NBOS_CLUSTER_SERVER_HPP
