#include "cluster/server.hpp"

#include <cassert>

#include "cluster/cluster.hpp"

namespace nbos::cluster {

GpuServer::GpuServer(ServerId id, ResourceSpec capacity)
    : id_(id),
      capacity_(capacity),
      device_busy_(static_cast<std::size_t>(
                       capacity.gpus > 0 ? capacity.gpus : 0),
                   false)
{
}

void
GpuServer::notify_owner(std::int32_t old_committed,
                        std::int32_t old_subscribed)
{
    if (owner_ != nullptr) {
        owner_->on_load_change(*this, old_committed, old_subscribed);
    }
}

void
GpuServer::subscribe(const ResourceSpec& spec)
{
    const std::int32_t old_subscribed = subscribed_.gpus;
    subscribed_ = subscribed_ + spec;
    notify_owner(committed_.gpus, old_subscribed);
}

void
GpuServer::unsubscribe(const ResourceSpec& spec)
{
    const std::int32_t old_subscribed = subscribed_.gpus;
    subscribed_ = subscribed_ - spec;
    assert(subscribed_.gpus >= 0 && subscribed_.millicpus >= 0 &&
           subscribed_.memory_mb >= 0);
    notify_owner(committed_.gpus, old_subscribed);
}

bool
GpuServer::can_commit(const ResourceSpec& spec) const
{
    return (committed_ + spec).fits_within(capacity_);
}

bool
GpuServer::commit(const ResourceSpec& spec)
{
    if (!can_commit(spec)) {
        return false;
    }
    const std::int32_t old_committed = committed_.gpus;
    committed_ = committed_ + spec;
    notify_owner(old_committed, subscribed_.gpus);
    return true;
}

void
GpuServer::release(const ResourceSpec& spec)
{
    const std::int32_t old_committed = committed_.gpus;
    committed_ = committed_ - spec;
    assert(committed_.gpus >= 0 && committed_.millicpus >= 0 &&
           committed_.memory_mb >= 0);
    notify_owner(old_committed, subscribed_.gpus);
}

std::optional<std::vector<std::int32_t>>
GpuServer::commit_devices(const ResourceSpec& spec)
{
    if (!commit(spec)) {
        return std::nullopt;
    }
    std::vector<std::int32_t> devices;
    devices.reserve(static_cast<std::size_t>(spec.gpus));
    for (std::size_t i = 0;
         i < device_busy_.size() &&
         devices.size() < static_cast<std::size_t>(spec.gpus);
         ++i) {
        if (!device_busy_[i]) {
            device_busy_[i] = true;
            devices.push_back(static_cast<std::int32_t>(i));
        }
    }
    // commit() succeeded, so enough free devices must exist.
    assert(devices.size() == static_cast<std::size_t>(spec.gpus));
    return devices;
}

void
GpuServer::release_devices(const ResourceSpec& spec,
                           const std::vector<std::int32_t>& devices)
{
    release(spec);
    for (const std::int32_t id : devices) {
        if (id >= 0 &&
            static_cast<std::size_t>(id) < device_busy_.size()) {
            device_busy_[static_cast<std::size_t>(id)] = false;
        }
    }
}

bool
GpuServer::device_in_use(std::int32_t id) const
{
    return id >= 0 && static_cast<std::size_t>(id) < device_busy_.size() &&
           device_busy_[static_cast<std::size_t>(id)];
}

void
GpuServer::add_container(const Container& container)
{
    assert(container.server == id_);
    containers_[container.id] = container;
}

void
GpuServer::remove_container(ContainerId id)
{
    containers_.erase(id);
}

Container*
GpuServer::find_container(ContainerId id)
{
    const auto it = containers_.find(id);
    return it == containers_.end() ? nullptr : &it->second;
}

}  // namespace nbos::cluster
