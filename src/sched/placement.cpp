#include "sched/placement.hpp"

#include <algorithm>

namespace nbos::sched {

LeastLoadedPolicy::LeastLoadedPolicy(double sr_watermark)
    : sr_watermark_(sr_watermark)
{
}

std::vector<cluster::ServerId>
LeastLoadedPolicy::pick(const cluster::Cluster& cluster,
                        const cluster::ResourceSpec& spec, std::size_t count,
                        std::int32_t replicas_per_kernel)
{
    std::vector<cluster::ServerId> chosen;
    if (count == 0) {
        return chosen;
    }
    // The dynamic limit includes the incoming subscription so that an
    // at-average server still qualifies as "preferred" while sum(S) grows.
    const double soft_limit = std::max(
        1.0, cluster::subscription_ratio(
                 cluster.total_subscribed_gpus() + spec.gpus,
                 cluster.total_gpus(), replicas_per_kernel));
    // Servers over the dynamic limit, in walk order: they fill a
    // shortfall only once every server under it has been seen.
    std::vector<cluster::ServerId> over_limit;
    chosen.reserve(count);
    cluster.visit_by_load([&](const cluster::GpuServer& server) {
        ++servers_examined_;
        if (!spec.fits_within(server.capacity())) {
            return true;
        }
        const double new_sr =
            static_cast<double>(server.subscribed_gpus() + spec.gpus) /
            (static_cast<double>(server.capacity().gpus) *
             static_cast<double>(replicas_per_kernel));
        // Hard watermark: never oversubscribe a server past it.
        if (new_sr > sr_watermark_ + 1e-9) {
            return true;
        }
        if (new_sr > soft_limit + 1e-9) {
            if (over_limit.size() < count) {
                over_limit.push_back(server.id());
            }
            return true;
        }
        chosen.push_back(server.id());
        return chosen.size() < count;
    });
    for (const cluster::ServerId id : over_limit) {
        if (chosen.size() == count) {
            break;
        }
        chosen.push_back(id);
    }
    return chosen;
}

std::size_t
pick_victim(const cluster::Cluster& cluster,
            const std::vector<cluster::ServerId>& servers)
{
    std::size_t victim = servers.size();
    std::int32_t fewest_idle = 0;
    for (std::size_t i = 0; i < servers.size(); ++i) {
        if (servers[i] == cluster::kNoServer) {
            continue;
        }
        const cluster::GpuServer* server = cluster.find(servers[i]);
        const std::int32_t idle = server != nullptr ? server->idle_gpus() : 0;
        if (victim == servers.size() || idle < fewest_idle) {
            fewest_idle = idle;
            victim = i;
        }
    }
    return victim;
}

cluster::ServerId
pick_target(const cluster::Cluster& cluster,
            const std::vector<cluster::ServerId>& exclude,
            const std::function<bool(const cluster::GpuServer&)>& fits)
{
    cluster::ServerId target = cluster::kNoServer;
    std::int32_t most_idle = -1;
    for (const auto& [id, server] : cluster.servers()) {
        if (server->idle_gpus() > most_idle &&
            std::find(exclude.begin(), exclude.end(), id) == exclude.end() &&
            fits(*server)) {
            most_idle = server->idle_gpus();
            target = id;
        }
    }
    return target;
}

}  // namespace nbos::sched
