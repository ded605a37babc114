#include "sched/routing.hpp"

#include <algorithm>
#include <stdexcept>

namespace nbos::sched {

const char*
to_string(RoutingPolicyKind kind)
{
    switch (kind) {
        case RoutingPolicyKind::kStaticHash: return "static_hash";
        case RoutingPolicyKind::kLeastLoaded: return "least_loaded";
        case RoutingPolicyKind::kRebalance: return "rebalance";
    }
    return "unknown";
}

RoutingPolicyKind
routing_policy_from_string(const std::string& name)
{
    if (name == "static_hash") {
        return RoutingPolicyKind::kStaticHash;
    }
    if (name == "least_loaded") {
        return RoutingPolicyKind::kLeastLoaded;
    }
    if (name == "rebalance") {
        return RoutingPolicyKind::kRebalance;
    }
    throw std::invalid_argument("unknown routing policy '" + name +
                                "' (expected static_hash, least_loaded, "
                                "or rebalance)");
}

namespace {

/** Donor-side view of one shard while the planner runs: its movable
 *  sessions, heaviest first (ties: lowest id), consumed as moves are
 *  planned. */
struct DonorList
{
    std::vector<SessionLoad> sessions;
    bool frozen = false;  // no improving move left this round
};

}  // namespace

std::vector<MigrationDecision>
plan_rebalance(const std::vector<ShardLoad>& loads,
               const std::vector<std::vector<SessionLoad>>& sessions)
{
    const std::size_t n = loads.size();
    if (n < 2 || sessions.size() != n) {
        return {};
    }
    std::vector<std::uint64_t> weight(n, 0);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
        weight[i] = loads[i].weight;
        total += loads[i].weight;
    }
    std::vector<DonorList> donors(n);
    std::size_t movable = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (const SessionLoad& s : sessions[i]) {
            if (s.movable && s.weight > 0) {
                donors[i].sessions.push_back(s);
            }
        }
        std::sort(donors[i].sessions.begin(), donors[i].sessions.end(),
                  [](const SessionLoad& a, const SessionLoad& b) {
                      if (a.weight != b.weight) {
                          return a.weight > b.weight;
                      }
                      return a.session < b.session;
                  });
        movable += donors[i].sessions.size();
    }
    // "Close enough" band: an eighth of the mean per-shard weight. Under
    // that gap a move cannot meaningfully improve the critical path and
    // would just ping-pong sessions between windows.
    const std::uint64_t slack =
        std::max<std::uint64_t>(1, total / (8 * n));

    std::vector<MigrationDecision> plan;
    for (std::size_t round = 0; round < movable; ++round) {
        // Heaviest unfrozen donor with sessions left; lightest receiver.
        std::size_t hi = n, lo = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (!donors[i].frozen && !donors[i].sessions.empty() &&
                (hi == n || weight[i] > weight[hi])) {
                hi = i;
            }
            if (weight[i] < weight[lo]) {
                lo = i;
            }
        }
        if (hi == n || hi == lo || weight[hi] - weight[lo] <= slack) {
            break;
        }
        const std::uint64_t gap = weight[hi] - weight[lo];
        // Largest session not overshooting the midpoint; else the
        // lightest one that still strictly narrows the gap.
        auto& list = donors[hi].sessions;
        std::size_t pick = list.size();
        for (std::size_t j = 0; j < list.size(); ++j) {
            if (list[j].weight * 2 <= gap) {
                pick = j;
                break;
            }
        }
        if (pick == list.size() && !list.empty() &&
            list.back().weight < gap) {
            pick = list.size() - 1;
        }
        if (pick == list.size()) {
            donors[hi].frozen = true;  // every session would overshoot
            continue;
        }
        const SessionLoad moved = list[pick];
        list.erase(list.begin() + static_cast<std::ptrdiff_t>(pick));
        weight[hi] -= moved.weight;
        weight[lo] += moved.weight;
        plan.push_back(MigrationDecision{moved.session,
                                         static_cast<std::int32_t>(hi),
                                         static_cast<std::int32_t>(lo)});
    }
    return plan;
}

std::size_t
SessionRouter::admit(std::int64_t session, std::uint64_t cells)
{
    if (kind_ != RoutingPolicyKind::kLeastLoaded) {
        return table_.shard_of(session);
    }
    std::size_t pick = 0;
    for (std::size_t i = 1; i < weight_.size(); ++i) {
        if (weight_[i] < weight_[pick] ||
            (weight_[i] == weight_[pick] && admitted_[i] < admitted_[pick])) {
            pick = i;
        }
    }
    table_.assign(session, static_cast<std::int32_t>(pick));
    weight_[pick] += cells + 1;
    admitted_[pick] += 1;
    return pick;
}

}  // namespace nbos::sched
