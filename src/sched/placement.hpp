/**
 * @file
 * Kernel-replica placement (§3.4.1): the paper's least-loaded placement
 * with the dynamic cluster-wide subscription-ratio (SR) cap, the one
 * policy both NotebookOS engines' shards place through.
 */
#ifndef NBOS_SCHED_PLACEMENT_HPP
#define NBOS_SCHED_PLACEMENT_HPP

#include <vector>

#include "cluster/cluster.hpp"

namespace nbos::sched {

/**
 * The paper's least-loaded policy with the dynamic SR cap.
 *
 * Two thresholds govern subscriptions (§3.2.1/§3.4.1):
 *  - the *hard watermark*: a server whose SR would exceed it is never
 *    chosen ("a configurable high watermark that prevents excessive
 *    over-subscription");
 *  - the *dynamic limit* max(1, sum(S)/(sum(G)*R)): servers it would be
 *    exceeded on are "rejected in favor of another" — i.e. deprioritized
 *    when alternatives exist, which balances subscriptions while letting
 *    the cluster SR climb during creation bursts (Fig. 10).
 */
class LeastLoadedPolicy
{
  public:
    /** @param sr_watermark the hard per-server SR cap. */
    explicit LeastLoadedPolicy(double sr_watermark = 3.0);

    /**
     * Choose up to @p count distinct servers able to host a replica of a
     * kernel requesting @p spec.
     *
     * @param replicas_per_kernel the R divisor in the SR.
     * @return chosen server ids (size < count means placement failed and a
     *         scale-out is required).
     */
    std::vector<cluster::ServerId>
    pick(const cluster::Cluster& cluster, const cluster::ResourceSpec& spec,
         std::size_t count, std::int32_t replicas_per_kernel) const;

    /** The dynamic cluster-wide SR limit, max(1, sum(S)/(sum(G)*R)). */
    double current_limit(const cluster::Cluster& cluster,
                         std::int32_t replicas_per_kernel) const;

    /** The hard per-server cap. */
    double watermark() const { return sr_watermark_; }

  private:
    double sr_watermark_;
};

}  // namespace nbos::sched

#endif  // NBOS_SCHED_PLACEMENT_HPP
