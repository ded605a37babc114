/**
 * @file
 * Shard seeds, shard identity, and deterministic session -> shard routing
 * for the sharded Global Scheduler, shared by both NotebookOS engines.
 *
 * The route must be stable across runs, seeds, platforms, and process
 * restarts (a session's kernel lives on exactly one shard for its whole
 * life), so it is a pure function of the session id and the shard count:
 * a splitmix64 finalizer over the id, reduced modulo the shard count.
 */
#ifndef NBOS_SCHED_SHARD_ROUTER_HPP
#define NBOS_SCHED_SHARD_ROUTER_HPP

#include <cstdint>
#include <stdexcept>
#include <string>

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
 * Stable hash router: session id -> shard index in [0, shards).
 *
 * Seed-independent by design — re-running an experiment with a different
 * RNG seed (or sweeping seeds) keeps every session on the same shard, so
 * seed sweeps compare like against like.
 */
class ShardRouter
{
  public:
    /** @param shards shard count.
     *  @throws std::invalid_argument on shards < 1 — an earlier revision
     *  silently clamped to 1 while shard_of threw on negative ids, so a
     *  config bug produced a quietly monolithic run instead of an error
     *  (validate_config rejects it upstream; this catches direct
     *  constructions too). */
    explicit ShardRouter(std::int32_t shards) : shards_(shards)
    {
        if (shards < 1) {
            throw std::invalid_argument(
                "ShardRouter: shard count must be >= 1, got " +
                std::to_string(shards));
        }
    }

    std::int32_t shards() const { return shards_; }

    /** Shard owning @p session_id. Pure and stable: equal ids always map
     *  to equal shards for a given shard count.
     *  @throws std::invalid_argument on negative ids — they would
     *  otherwise silently sign-cast into the hash, so a caller bug (e.g.
     *  routing a kNoServer/-1 sentinel) produced a stable-looking but
     *  meaningless shard instead of an error. */
    std::size_t shard_of(std::int64_t session_id) const
    {
        if (session_id < 0) {
            throw std::invalid_argument(
                "ShardRouter::shard_of: negative session id " +
                std::to_string(session_id));
        }
        if (shards_ == 1) {
            return 0;
        }
        return static_cast<std::size_t>(
            splitmix64(static_cast<std::uint64_t>(session_id)) %
            static_cast<std::uint64_t>(shards_));
    }

  private:
    std::int32_t shards_;
};

}  // namespace nbos::sched

#endif  // NBOS_SCHED_SHARD_ROUTER_HPP
