/**
 * @file
 * Load-aware session -> shard routing, shared by both NotebookOS engines.
 *
 * Three pieces:
 *
 *  - RoutingTable: an explicit session -> shard map with the stable hash
 *    as the default/fallback route. With no overrides it is byte-for-byte
 *    the ShardRouter, which is how `static_hash` keeps every pre-routing
 *    golden and bench hash bit-identical.
 *  - plan_rebalance: the deterministic greedy planner behind the
 *    `rebalance` policy.
 *  - SessionRouter: the one router both engine drivers hold. It owns the
 *    table, admits sessions under the configured policy, forgets them
 *    when their last event has run, and applies window-boundary
 *    rebalance plans to any shard type.
 *
 * Determinism contract: nothing in this header reads clocks, RNGs, or
 * addresses. Ties break on the lowest shard index / lowest session id,
 * and per-shard inputs are always merged in shard order, so every
 * decision is reproducible across runs, thread interleavings, and
 * platforms.
 */
#ifndef NBOS_SCHED_ROUTING_HPP
#define NBOS_SCHED_ROUTING_HPP

#include <cstdint>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sched/shard_router.hpp"

namespace nbos::sched {

/** The routing policies understood by every sharded engine. */
enum class RoutingPolicyKind
{
    /** Pure splitmix64 hash (the default; pre-routing behavior). */
    kStaticHash,
    /** New sessions go to the shard with the least admitted weight. */
    kLeastLoaded,
    /** Hash admission + deterministic window-boundary migration. */
    kRebalance,
};

const char* to_string(RoutingPolicyKind kind);

/** Parse a policy name ("static_hash", "least_loaded", "rebalance").
 *  @throws std::invalid_argument on anything else. */
RoutingPolicyKind routing_policy_from_string(const std::string& name);

/** One shard's load as seen at a window boundary (merged in shard
 *  order before any planning). */
struct ShardLoad
{
    /** Activity weight accumulated over the closing window (submitted
     *  cells for the prototype shards; analytic tasks for the fast
     *  engine). */
    std::uint64_t weight = 0;
};

/** One session's share of its shard's window weight. Shards report only
 *  sessions with non-zero window weight (idle sessions are never worth
 *  moving), each tagged with whether it can migrate right now. */
struct SessionLoad
{
    std::int64_t session = -1;
    std::uint64_t weight = 0;
    /** False while the session is mid-operation (kernel still being
     *  created, an intra-shard migration or an analytic task in
     *  flight); the planner must skip it this window. */
    bool movable = true;
};

/** One planned whole-session move. */
struct MigrationDecision
{
    std::int64_t session = -1;
    std::int32_t from = -1;
    std::int32_t to = -1;
};

/**
 * Explicit session -> shard map over the stable hash fallback.
 *
 * Reads are cheap and const; writes happen only from the driving thread
 * at admission or window boundaries, never inside a shard window, so the
 * table needs no synchronization.
 */
class RoutingTable
{
  public:
    /** @throws std::invalid_argument on shards < 1 (no silent clamp in
     *  the routing layer; validate_config rejects it upstream too). */
    explicit RoutingTable(std::int32_t shards) : router_(shards) {}

    std::int32_t shards() const { return router_.shards(); }

    /** The hash fallback (static-hash equivalence tests). */
    const ShardRouter& router() const { return router_; }

    /** Current owner of @p session: the explicit assignment if present,
     *  else the hash route. @throws std::invalid_argument on negative
     *  ids (via ShardRouter::shard_of). */
    std::size_t shard_of(std::int64_t session) const
    {
        const auto it = overrides_.find(session);
        if (it != overrides_.end()) {
            return static_cast<std::size_t>(it->second);
        }
        return router_.shard_of(session);
    }

    /** Pin @p session to @p shard. An assignment equal to the hash route
     *  is dropped so the override map only holds real deviations.
     *  @throws std::out_of_range on a shard outside [0, shards). */
    void assign(std::int64_t session, std::int32_t shard)
    {
        if (shard < 0 || shard >= router_.shards()) {
            throw std::out_of_range(
                "RoutingTable::assign: shard " + std::to_string(shard) +
                " outside [0, " + std::to_string(router_.shards()) + ")");
        }
        if (router_.shard_of(session) ==
            static_cast<std::size_t>(shard)) {
            overrides_.erase(session);
        } else {
            overrides_[session] = shard;
        }
    }

    /** Drop @p session's override (its last event has run; bounds the
     *  map). */
    void forget(std::int64_t session) { overrides_.erase(session); }

    /** Number of sessions currently routed away from their hash shard. */
    std::size_t overrides() const { return overrides_.size(); }

  private:
    ShardRouter router_;
    std::unordered_map<std::int64_t, std::int32_t> overrides_;
};

/**
 * The deterministic greedy rebalance planner.
 *
 * Repeatedly takes the heaviest and lightest shards (ties: lowest
 * index) and moves the heaviest movable session that strictly narrows
 * the gap — preferring the largest session not exceeding half the gap,
 * falling back to the lightest improving one — until no improving move
 * exists or the gap falls under `slack` (a "close enough" band that
 * prevents ping-ponging sessions over rounding-level imbalance).
 *
 * Pure function: equal inputs give equal plans. Weights are the window
 * weights from SessionLoad; shard weights start from ShardLoad::weight
 * and are updated as moves are planned.
 */
std::vector<MigrationDecision> plan_rebalance(
    const std::vector<ShardLoad>& loads,
    const std::vector<std::vector<SessionLoad>>& sessions);

/**
 * The session -> shard router of both NotebookOS engines.
 *
 * It owns the RoutingTable and applies SchedulerConfig::routing:
 *
 *  - `static_hash`: every session stays on its hash shard;
 *  - `least_loaded`: admit() sends a new session to the shard with the
 *    least cumulative admitted weight, a session weighing its cells + 1
 *    (ties: fewest sessions admitted, then lowest index);
 *  - `rebalance`: hash admission, then rebalance() moves whole sessions
 *    at window boundaries.
 *
 * A driver calls admit() when a session enters its feed, shard_of() for
 * each of the session's events, rebalance() when a window closes, and
 * forget() once the session's last event has run, so the table only
 * holds overrides for live sessions. Every call happens on the driving
 * thread between windows, so the router needs no synchronization.
 */
class SessionRouter
{
  public:
    /** @throws std::invalid_argument on shards < 1. */
    SessionRouter(RoutingPolicyKind kind, std::int32_t shards)
        : kind_(kind),
          table_(shards),
          weight_(static_cast<std::size_t>(shards), 0),
          admitted_(static_cast<std::size_t>(shards), 0)
    {
    }

    const RoutingTable& table() const { return table_; }

    /** True under `rebalance`, the one policy that moves sessions after
     *  admission. */
    bool rebalancing() const
    {
        return kind_ == RoutingPolicyKind::kRebalance;
    }

    /** Current owner of @p session. */
    std::size_t shard_of(std::int64_t session) const
    {
        return table_.shard_of(session);
    }

    /** Route a new @p session that will submit @p cells cells; it weighs
     *  cells + 1, so a cell-less session still counts. @return its shard. */
    std::size_t admit(std::int64_t session, std::uint64_t cells);

    /** Drop @p session's override once its last event has run. */
    void forget(std::int64_t session) { table_.forget(session); }

    /**
     * Close a window. Under `rebalance` harvest every shard's window load
     * in shard order, plan with plan_rebalance, and move each planned
     * session: extract from its owner, adopt on the target, reassign the
     * route. Other policies never move sessions, so this is a no-op for
     * them. @p shard_at(i) returns shard i, whose type provides
     * `harvest_window_load(ShardLoad&, std::vector<SessionLoad>&)`,
     * `extract_session(id, SessionExtract&) -> bool`,
     * `adopt_session(SessionExtract)` and the member type
     * `SessionExtract`. @return sessions moved.
     */
    template <typename ShardAt>
    std::size_t rebalance(ShardAt&& shard_at);

    /** Whole sessions moved across shards so far (not a SchedulerStats
     *  counter: merged totals stay policy-invariant). */
    std::uint64_t sessions_rebalanced() const
    {
        return sessions_rebalanced_;
    }

  private:
    RoutingPolicyKind kind_;
    RoutingTable table_;
    /** least_loaded state per shard: cumulative admitted weight and
     *  sessions admitted. */
    std::vector<std::uint64_t> weight_;
    std::vector<std::uint64_t> admitted_;
    std::uint64_t sessions_rebalanced_ = 0;
};

template <typename ShardAt>
std::size_t
SessionRouter::rebalance(ShardAt&& shard_at)
{
    if (!rebalancing()) {
        return 0;
    }
    const auto count = static_cast<std::size_t>(table_.shards());
    std::vector<ShardLoad> loads(count);
    std::vector<std::vector<SessionLoad>> sessions(count);
    for (std::size_t i = 0; i < count; ++i) {
        shard_at(i).harvest_window_load(loads[i], sessions[i]);
    }
    std::size_t moved = 0;
    for (const MigrationDecision& move : plan_rebalance(loads, sessions)) {
        auto& from = shard_at(static_cast<std::size_t>(move.from));
        typename std::remove_reference_t<decltype(from)>::SessionExtract
            extract;
        if (!from.extract_session(move.session, extract)) {
            continue;
        }
        shard_at(static_cast<std::size_t>(move.to))
            .adopt_session(std::move(extract));
        table_.assign(move.session, move.to);
        ++moved;
    }
    sessions_rebalanced_ += moved;
    return moved;
}

}  // namespace nbos::sched

#endif  // NBOS_SCHED_ROUTING_HPP
