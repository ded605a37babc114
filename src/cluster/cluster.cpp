#include "cluster/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace nbos::cluster {

Cluster::Cluster(ResourceSpec server_shape) : server_shape_(server_shape)
{
}

GpuServer&
Cluster::add_server()
{
    return add_server(server_shape_);
}

GpuServer&
Cluster::add_server(const ResourceSpec& shape)
{
    // Ids are monotonic, so appending keeps the arrays id-sorted and the
    // new id is the largest in its load bucket.
    const auto id = static_cast<ServerId>(by_id_.size());
    auto server = std::make_unique<GpuServer>(id, shape);
    GpuServer& ref = *server;
    ref.owner_ = this;
    ids_.push_back(id);
    nodes_.push_back(std::move(server));
    by_id_.push_back(&ref);
    bucket(0, 0).push_back(id);
    total_gpus_ += shape.gpus;
    return ref;
}

bool
Cluster::remove_server(ServerId id)
{
    const GpuServer* server = find(id);
    if (server == nullptr) {
        return false;
    }
    std::vector<ServerId>& load =
        bucket(server->committed_gpus(), server->subscribed_gpus());
    load.erase(std::lower_bound(load.begin(), load.end(), id));
    total_gpus_ -= server->capacity().gpus;
    total_subscribed_gpus_ -= server->subscribed_gpus();
    total_committed_gpus_ -= server->committed_gpus();
    by_id_[static_cast<std::size_t>(id)] = nullptr;
    const auto index = std::lower_bound(ids_.begin(), ids_.end(), id) -
                       ids_.begin();
    ids_.erase(ids_.begin() + index);
    nodes_.erase(nodes_.begin() + index);
    return true;
}

std::vector<ServerId>&
Cluster::bucket(std::int32_t committed, std::int32_t subscribed)
{
    assert(committed >= 0 && subscribed >= 0);
    const auto row = static_cast<std::size_t>(committed);
    if (row >= load_.size()) {
        load_.resize(row + 1);
    }
    std::vector<std::vector<ServerId>>& buckets = load_[row];
    const auto column = static_cast<std::size_t>(subscribed);
    if (column >= buckets.size()) {
        buckets.resize(column + 1);
    }
    return buckets[column];
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
    const ServerId id = server.id();
    std::vector<ServerId>& from = bucket(old_committed, old_subscribed);
    const auto it = std::lower_bound(from.begin(), from.end(), id);
    assert(it != from.end() && *it == id);
    from.erase(it);
    // Looked up only now: creating the new bucket may move the old one.
    std::vector<ServerId>& to = bucket(committed, subscribed);
    to.insert(std::lower_bound(to.begin(), to.end(), id), id);
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

const PrewarmPool::State*
PrewarmPool::find(ServerId server) const
{
    if (static_cast<std::uint64_t>(server) >= pools_.size()) {
        return nullptr;
    }
    const State& state = pools_[static_cast<std::size_t>(server)];
    return state.registered ? &state : nullptr;
}

PrewarmPool::State*
PrewarmPool::find(ServerId server)
{
    return const_cast<State*>(std::as_const(*this).find(server));
}

void
PrewarmPool::register_server(ServerId id)
{
    assert(id >= 0);
    const auto slot = static_cast<std::size_t>(id);
    if (slot >= pools_.size()) {
        pools_.resize(slot + 1);
    }
    pools_[slot].registered = true;
}

void
PrewarmPool::unregister_server(ServerId id)
{
    if (State* state = find(id)) {
        *state = State{};
    }
}

std::int32_t
PrewarmPool::available(ServerId server) const
{
    const State* state = find(server);
    return state == nullptr ? 0 : state->available;
}

std::int32_t
PrewarmPool::pending(ServerId server) const
{
    const State* state = find(server);
    return state == nullptr ? 0 : state->pending;
}

bool
PrewarmPool::acquire(ServerId server)
{
    State* state = find(server);
    if (state == nullptr || state->available <= 0) {
        ++total_misses_;
        return false;
    }
    --state->available;
    ++total_acquired_;
    return true;
}

void
PrewarmPool::begin_refill(ServerId server)
{
    if (State* state = find(server)) {
        ++state->pending;
    }
}

void
PrewarmPool::complete_refill(ServerId server)
{
    if (State* state = find(server)) {
        if (state->pending > 0) {
            --state->pending;
        }
        ++state->available;
    }
}

void
PrewarmPool::release(ServerId server)
{
    if (State* state = find(server)) {
        ++state->available;
    }
}

std::int32_t
PrewarmPool::deficit(ServerId server) const
{
    const State* state = find(server);
    if (state == nullptr) {
        return 0;
    }
    const std::int32_t shortfall =
        target_per_server_ - state->available - state->pending;
    return shortfall > 0 ? shortfall : 0;
}

}  // namespace nbos::cluster
