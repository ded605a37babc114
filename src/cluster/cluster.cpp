#include "cluster/cluster.hpp"

#include <algorithm>
#include <cassert>

namespace nbos::cluster {

Cluster::Cluster(ResourceSpec server_shape) : server_shape_(server_shape)
{
}

std::size_t
Cluster::index_of(ServerId id) const
{
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    if (it == ids_.end() || *it != id) {
        return kNpos;
    }
    return static_cast<std::size_t>(it - ids_.begin());
}

GpuServer&
Cluster::add_server()
{
    return add_server(server_shape_);
}

GpuServer&
Cluster::add_server(const ResourceSpec& shape)
{
    // Ids are monotonic, so appending keeps the arrays id-sorted.
    const ServerId id = next_id_++;
    auto server = std::make_unique<GpuServer>(id, shape);
    GpuServer& ref = *server;
    ref.owner_ = this;
    ids_.push_back(id);
    nodes_.push_back(std::move(server));
    by_load_.insert(LoadEntry{0, 0, id, &ref});
    total_gpus_ += shape.gpus;
    return ref;
}

bool
Cluster::remove_server(ServerId id)
{
    const std::size_t index = index_of(id);
    if (index == kNpos) {
        return false;
    }
    const GpuServer& server = *nodes_[index];
    by_load_.erase(LoadEntry{server.committed_gpus(),
                             server.subscribed_gpus(), id, &server});
    total_gpus_ -= server.capacity().gpus;
    total_subscribed_gpus_ -= server.subscribed_gpus();
    total_committed_gpus_ -= server.committed_gpus();
    ids_.erase(ids_.begin() + static_cast<std::ptrdiff_t>(index));
    nodes_.erase(nodes_.begin() + static_cast<std::ptrdiff_t>(index));
    return true;
}

GpuServer*
Cluster::find(ServerId id)
{
    const std::size_t index = index_of(id);
    return index == kNpos ? nullptr : nodes_[index].get();
}

const GpuServer*
Cluster::find(ServerId id) const
{
    const std::size_t index = index_of(id);
    return index == kNpos ? nullptr : nodes_[index].get();
}

void
Cluster::on_load_change(const GpuServer& server, std::int32_t old_committed,
                        std::int32_t old_subscribed)
{
    const std::int32_t committed = server.committed_gpus();
    const std::int32_t subscribed = server.subscribed_gpus();
    if (committed == old_committed && subscribed == old_subscribed) {
        return;
    }
    total_committed_gpus_ += committed - old_committed;
    total_subscribed_gpus_ += subscribed - old_subscribed;
    auto node = by_load_.extract(
        LoadEntry{old_committed, old_subscribed, server.id(), &server});
    assert(!node.empty());
    node.value().committed_gpus = committed;
    node.value().subscribed_gpus = subscribed;
    by_load_.insert(std::move(node));
}

double
subscription_ratio(std::int64_t subscribed_gpus, std::int64_t total_gpus,
                   std::int32_t replicas_per_kernel)
{
    if (total_gpus <= 0 || replicas_per_kernel < 1) {
        return 0.0;
    }
    return static_cast<double>(subscribed_gpus) /
           (static_cast<double>(total_gpus) *
            static_cast<double>(replicas_per_kernel));
}

double
Cluster::cluster_subscription_ratio(std::int32_t replicas_per_kernel) const
{
    return subscription_ratio(total_subscribed_gpus(), total_gpus(),
                              replicas_per_kernel);
}

PrewarmPool::PrewarmPool(std::int32_t target_per_server)
    : target_per_server_(target_per_server)
{
}

void
PrewarmPool::register_server(ServerId id)
{
    pools_.emplace(id, State{});
}

void
PrewarmPool::unregister_server(ServerId id)
{
    pools_.erase(id);
}

std::int32_t
PrewarmPool::available(ServerId server) const
{
    const auto it = pools_.find(server);
    return it == pools_.end() ? 0 : it->second.available;
}

std::int32_t
PrewarmPool::pending(ServerId server) const
{
    const auto it = pools_.find(server);
    return it == pools_.end() ? 0 : it->second.pending;
}

bool
PrewarmPool::acquire(ServerId server)
{
    const auto it = pools_.find(server);
    if (it == pools_.end() || it->second.available <= 0) {
        ++total_misses_;
        return false;
    }
    --it->second.available;
    ++total_acquired_;
    return true;
}

void
PrewarmPool::begin_refill(ServerId server)
{
    const auto it = pools_.find(server);
    if (it != pools_.end()) {
        ++it->second.pending;
    }
}

void
PrewarmPool::complete_refill(ServerId server)
{
    const auto it = pools_.find(server);
    if (it != pools_.end()) {
        if (it->second.pending > 0) {
            --it->second.pending;
        }
        ++it->second.available;
    }
}

void
PrewarmPool::release(ServerId server)
{
    const auto it = pools_.find(server);
    if (it != pools_.end()) {
        ++it->second.available;
    }
}

std::int32_t
PrewarmPool::deficit(ServerId server) const
{
    const auto it = pools_.find(server);
    if (it == pools_.end()) {
        return 0;
    }
    const std::int32_t shortfall =
        target_per_server_ - it->second.available - it->second.pending;
    return shortfall > 0 ? shortfall : 0;
}

}  // namespace nbos::cluster
