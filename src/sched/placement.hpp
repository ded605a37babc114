/**
 * @file
 * Kernel-replica placement (§3.4.1): the paper's least-loaded placement
 * with the dynamic cluster-wide subscription-ratio (SR) cap, the one
 * policy both NotebookOS engines' shards place through.
 *
 * pick() walks the cluster's load index (cluster::Cluster::visit_by_load(),
 * kept up to date as loads change) least loaded first and stops once it
 * has enough servers under the dynamic limit, so a placement examines a
 * handful of servers whatever the fleet size; only a placement that
 * cannot be satisfied walks the whole fleet.
 *
 * pick_victim() and pick_target() are the one rule each for moving a
 * replica that both engines use: which replica a failed executor election
 * migrates (§3.2.3), and where a migrated or repaired (§3.2.5) replica
 * goes.
 */
#ifndef NBOS_SCHED_PLACEMENT_HPP
#define NBOS_SCHED_PLACEMENT_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
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
     * kernel requesting @p spec: servers under the dynamic limit first,
     * then the ones over it, each group least loaded first (committed
     * GPUs, subscribed GPUs, id).
     *
     * @param replicas_per_kernel the R divisor in the SR.
     * @return chosen server ids (size < count means placement failed and a
     *         scale-out is required).
     */
    std::vector<cluster::ServerId>
    pick(const cluster::Cluster& cluster, const cluster::ResourceSpec& spec,
         std::size_t count, std::int32_t replicas_per_kernel);

    /** The hard per-server cap. */
    double watermark() const { return sr_watermark_; }

    /** Load-index entries pick() has examined so far (deterministic work
     *  count: a return to whole-fleet scans multiplies it). */
    std::uint64_t servers_examined() const { return servers_examined_; }

  private:
    double sr_watermark_;
    std::uint64_t servers_examined_ = 0;
};

/**
 * The migration victim among a kernel's replica servers (§3.2.3): the
 * first of the ones with the fewest idle GPUs. A server missing from
 * @p cluster counts as having none; kNoServer entries (replicas that are
 * not live) are skipped.
 * @return the victim's position in @p servers, or servers.size() if no
 *         entry is a server.
 */
std::size_t pick_victim(const cluster::Cluster& cluster,
                        const std::vector<cluster::ServerId>& servers);

/**
 * Where a replica moves: among the servers not in @p exclude for which
 * @p fits holds, the first in id order with the most idle GPUs. A
 * migration asks that the kernel's GPUs can be committed there now; a
 * repair only that its subscription fits the server's capacity.
 * @return cluster::kNoServer if no server qualifies.
 */
cluster::ServerId
pick_target(const cluster::Cluster& cluster,
            const std::vector<cluster::ServerId>& exclude,
            const std::function<bool(const cluster::GpuServer&)>& fits);

}  // namespace nbos::sched

#endif  // NBOS_SCHED_PLACEMENT_HPP
