/**
 * @file
 * Session -> shard routing, shared by both NotebookOS engines.
 *
 *  - hash_shard: the stable splitmix64 route of a session id, the route
 *    of every session no policy has moved.
 *  - plan_rebalance: the deterministic greedy planner behind the
 *    `rebalance` policy.
 *  - SessionRouter: the run's one router, which core::drive_windows
 *    drives. It keeps the sessions routed away from their hash shard,
 *    admits sessions under the configured policy, forgets them when their
 *    last event has run, and applies window-boundary rebalance plans to
 *    any shard type.
 *
 * It also holds the shard seeds and identities both engines build their
 * shards from.
 *
 * Determinism contract: nothing in this header reads clocks, RNGs, or
 * addresses. Ties break on the lowest shard index / lowest session id,
 * and per-shard inputs are always merged in shard order, so every
 * decision is reproducible across runs, thread interleavings, and
 * platforms.
 */
#ifndef NBOS_SCHED_ROUTING_HPP
#define NBOS_SCHED_ROUTING_HPP

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace nbos::sched {

/** splitmix64 finalizer: a strong, cheap, portable 64-bit mix. */
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Per-shard RNG seed shared by every sharded engine: shard 0 keeps the
 *  caller's seed verbatim (monolithic byte-identity at shards == 1);
 *  siblings mix the shard index in so their streams are independent. */
constexpr std::uint64_t
shard_seed(std::uint64_t seed, std::int32_t index)
{
    if (index == 0) {
        return seed;
    }
    return splitmix64(seed + 0x632be59bd9b4e019ULL *
                                 static_cast<std::uint64_t>(index));
}

/**
 * A shard's position in the fleet: shard @p index of @p count. Both shard
 * types take their share of SchedulerConfig::initial_servers from it, and
 * a SchedulerShard also its disjoint kernel-id progression (index + 1,
 * index + 1 + count, ...). The default identity {0, 1} is the monolithic
 * scheduler.
 */
struct ShardIdentity
{
    std::int32_t index = 0;
    std::int32_t count = 1;

    /** This shard's round-robin share of @p total servers: shares differ
     *  by at most one and lower indices take the remainder. */
    std::int32_t share_of(std::int32_t total) const
    {
        if (total <= 0 || count <= 1) {
            return total;
        }
        return total / count + (index < total % count ? 1 : 0);
    }
};

/**
 * The stable hash route: the shard in [0, @p shards) that owns session
 * @p id unless a policy moved it. A pure function of (id, shard count),
 * independent of the seed, so seed sweeps keep every session on the same
 * shard.
 *
 * @throws std::invalid_argument on a negative id (a caller bug, such as
 *         routing a -1 sentinel, would otherwise sign-cast into a
 *         stable-looking shard) and on @p shards < 1 (a config bug would
 *         otherwise run quietly monolithic; validate_config rejects it
 *         upstream too).
 */
inline std::size_t
hash_shard(std::int64_t id, std::int32_t shards)
{
    if (shards < 1) {
        throw std::invalid_argument(
            "hash_shard: shard count must be >= 1, got " +
            std::to_string(shards));
    }
    if (id < 0) {
        throw std::invalid_argument("hash_shard: negative session id " +
                                    std::to_string(id));
    }
    if (shards == 1) {
        return 0;
    }
    return static_cast<std::size_t>(
        splitmix64(static_cast<std::uint64_t>(id)) %
        static_cast<std::uint64_t>(shards));
}

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
 * The session -> shard router of a NotebookOS run.
 *
 * It holds the sessions routed away from their hash shard (every other
 * session is on hash_shard) and applies SchedulerConfig::routing:
 *
 *  - `static_hash`: every session stays on its hash shard;
 *  - `least_loaded`: admit() sends a new session to the shard with the
 *    least cumulative admitted weight, a session weighing its cells + 1
 *    (ties: fewest sessions admitted, then lowest index);
 *  - `rebalance`: hash admission, then rebalance() moves whole sessions
 *    at window boundaries.
 *
 * A run has one router, and core::drive_windows makes every call on it:
 * admit() when a session enters its feed, shard_of() for each of the
 * session's events, rebalance() when a window closes, and forget() once
 * the session's last event has run, so the override map only holds live
 * sessions. Every call happens on the driving thread between windows, so
 * the router needs no synchronization.
 */
class SessionRouter
{
  public:
    /** @throws std::invalid_argument on shards < 1. */
    SessionRouter(RoutingPolicyKind kind, std::int32_t shards);

    /** True under `rebalance`, the one policy that moves sessions after
     *  admission. */
    bool rebalancing() const
    {
        return kind_ == RoutingPolicyKind::kRebalance;
    }

    /** Current owner of @p session: its override if it has one, else its
     *  hash shard. @throws std::invalid_argument on a negative id. */
    std::size_t shard_of(std::int64_t session) const
    {
        const auto it = overrides_.find(session);
        if (it != overrides_.end()) {
            return static_cast<std::size_t>(it->second);
        }
        return hash_shard(session, shards_);
    }

    /** Route a new @p session that will submit @p cells cells; it weighs
     *  cells + 1, so a cell-less session still counts. @return its shard. */
    std::size_t admit(std::int64_t session, std::uint64_t cells);

    /** Drop @p session's override once its last event has run. */
    void forget(std::int64_t session) { overrides_.erase(session); }

    /**
     * Close a window. Under `rebalance` harvest every shard's window load
     * in shard order, plan with plan_rebalance, and move each planned
     * session: extract from its owner, adopt on the target, reroute it.
     * Other policies never move sessions, so this is a no-op for them.
     * @p shards.shard(i) returns shard i, whose type provides
     * `harvest_window_load(ShardLoad&, std::vector<SessionLoad>&)`,
     * `extract_session(id, SessionExtract&) -> bool`,
     * `adopt_session(SessionExtract)` and the member type
     * `SessionExtract`. @return sessions moved.
     */
    template <typename Shards>
    std::size_t rebalance(Shards& shards);

    /** Whole sessions moved across shards so far (not a SchedulerStats
     *  counter: merged totals stay policy-invariant). */
    std::uint64_t sessions_rebalanced() const
    {
        return sessions_rebalanced_;
    }

    /** Sessions currently routed away from their hash shard. */
    std::size_t overrides() const { return overrides_.size(); }

  private:
    /** Route @p session to @p shard; a route equal to its hash shard
     *  leaves no override. */
    void route(std::int64_t session, std::size_t shard);

    RoutingPolicyKind kind_;
    std::int32_t shards_;
    std::unordered_map<std::int64_t, std::int32_t> overrides_;
    /** least_loaded state per shard: cumulative admitted weight and
     *  sessions admitted. */
    std::vector<std::uint64_t> weight_;
    std::vector<std::uint64_t> admitted_;
    std::uint64_t sessions_rebalanced_ = 0;
};

template <typename Shards>
std::size_t
SessionRouter::rebalance(Shards& shards)
{
    if (!rebalancing()) {
        return 0;
    }
    const auto count = static_cast<std::size_t>(shards_);
    std::vector<ShardLoad> loads(count);
    std::vector<std::vector<SessionLoad>> sessions(count);
    for (std::size_t i = 0; i < count; ++i) {
        shards.shard(i).harvest_window_load(loads[i], sessions[i]);
    }
    std::size_t moved = 0;
    for (const MigrationDecision& move : plan_rebalance(loads, sessions)) {
        auto& from = shards.shard(static_cast<std::size_t>(move.from));
        typename std::remove_reference_t<decltype(from)>::SessionExtract
            extract;
        if (!from.extract_session(move.session, extract)) {
            continue;
        }
        const auto to = static_cast<std::size_t>(move.to);
        shards.shard(to).adopt_session(std::move(extract));
        route(move.session, to);
        ++moved;
    }
    sessions_rebalanced_ += moved;
    return moved;
}

}  // namespace nbos::sched

#endif  // NBOS_SCHED_ROUTING_HPP
