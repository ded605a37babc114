#include "sched/placement.hpp"

#include <algorithm>

namespace nbos::sched {

LeastLoadedPolicy::LeastLoadedPolicy(double sr_watermark)
    : sr_watermark_(sr_watermark)
{
}

double
LeastLoadedPolicy::current_limit(const cluster::Cluster& cluster,
                                 std::int32_t replicas_per_kernel) const
{
    return std::max(1.0,
                    cluster.cluster_subscription_ratio(replicas_per_kernel));
}

std::vector<cluster::ServerId>
LeastLoadedPolicy::pick(const cluster::Cluster& cluster,
                        const cluster::ResourceSpec& spec, std::size_t count,
                        std::int32_t replicas_per_kernel) const
{
    // The dynamic limit includes the incoming subscription so that an
    // at-average server still qualifies as "preferred" while sum(S) grows.
    const double soft_limit = std::max(
        1.0, cluster::subscription_ratio(
                 cluster.total_subscribed_gpus() + spec.gpus,
                 cluster.total_gpus(), replicas_per_kernel));
    struct Candidate
    {
        cluster::ServerId id;
        bool over_soft_limit;
        std::int32_t committed;
        std::int32_t subscribed;
    };
    std::vector<Candidate> candidates;
    for (const auto& [id, server] : cluster.servers()) {
        if (server->draining() || !spec.fits_within(server->capacity())) {
            continue;
        }
        const double new_sr =
            static_cast<double>(server->subscribed_gpus() + spec.gpus) /
            (static_cast<double>(server->capacity().gpus) *
             static_cast<double>(replicas_per_kernel));
        // Hard watermark: never oversubscribe a server past it.
        if (new_sr > sr_watermark_ + 1e-9) {
            continue;
        }
        candidates.push_back(Candidate{id, new_sr > soft_limit + 1e-9,
                                       server->committed_gpus(),
                                       server->subscribed_gpus()});
    }
    // Prefer servers under the dynamic limit, then least-loaded: fewest
    // actively used GPUs, then fewest subscribed, then id (determinism).
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                  if (a.over_soft_limit != b.over_soft_limit) {
                      return !a.over_soft_limit;
                  }
                  if (a.committed != b.committed) {
                      return a.committed < b.committed;
                  }
                  if (a.subscribed != b.subscribed) {
                      return a.subscribed < b.subscribed;
                  }
                  return a.id < b.id;
              });
    std::vector<cluster::ServerId> chosen;
    for (const Candidate& candidate : candidates) {
        if (chosen.size() >= count) {
            break;
        }
        chosen.push_back(candidate.id);
    }
    return chosen;
}

}  // namespace nbos::sched
