/**
 * @file
 * scale_skewed: routing-policy comparison of the sharded fast analytic
 * engine (core::run, notebookos-fast) on a hot-tenant skewed trace, at
 * shards ∈ {1, 2, 4, 8} × routing ∈ {static_hash, least_loaded,
 * rebalance}.
 *
 * The trace is the scale_sessions background (short-lived uniform
 * sessions, one GPU cell each) plus eight whale sessions that live the
 * whole 24-hour day and together submit ~3x the background's cells.
 * Whale ids are chosen deterministically so that under the static hash
 * at shards=8 four whales collide on one shard — the worst case the
 * routing layer exists to fix: `least_loaded` spreads them at admission,
 * `rebalance` migrates them off the hot shard at the first window
 * boundaries.
 *
 * Throughput is compared on the *critical path*: every run is serial
 * (shard_parallel off) and each shard's event loop is timed alone, so
 * total events / max per-shard busy seconds is what an N-core host
 * would see — independent of how many cores this host has. The
 * acceptance bar of the routing PR is rebalance >= 2x static_hash on
 * that figure at shards=8.
 *
 * Full tier: 1,000,000 background sessions (4M cells). Smoke tier
 * (NBOS_BENCH_SMOKE=1, what `ctest -L scale` and the CI bench gate
 * run): 20,000 background sessions, same shape.
 *
 * Output convention: table rows (including the event-share imbalance,
 * a pure function of the deterministic per-shard event counts) are
 * hashed by bench/check_bench.py; wall-clock figures go on `# TIMING`
 * lines, which the gate strips before hashing.
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/engine_api.hpp"
#include "sched/routing.hpp"
#include "sched/shard_router.hpp"

namespace {

using namespace nbos;

/** splitmix64 start-time spreader, as in scale_sessions. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

constexpr std::int64_t kWhales = 8;

/** Whale session ids, starting at @p base: the first four share one
 *  shard under the static hash at shards=8 (a guaranteed worst-case
 *  collision, not a lucky draw), the other four land on distinct other
 *  shards. Pure function of @p base via the stable router hash. */
std::vector<std::int64_t>
whale_ids(std::int64_t base)
{
    const sched::ShardRouter router(8);
    std::vector<std::int64_t> ids;
    const std::size_t hot = router.shard_of(base);
    std::int64_t next = base;
    while (ids.size() < 4) {
        if (router.shard_of(next) == hot) {
            ids.push_back(next);
        }
        ++next;
    }
    std::vector<char> used(8, 0);
    used[hot] = 1;
    while (ids.size() < kWhales) {
        const std::size_t shard = router.shard_of(next);
        if (!used[shard]) {
            used[shard] = 1;
            ids.push_back(next);
        }
        ++next;
    }
    return ids;
}

/** Skewed scale workload: @p light_count uniform 15-minute sessions
 *  with one GPU cell each, plus eight day-long whales that together
 *  submit 3x the background cell volume (each whale's cells are evenly
 *  spaced and strictly serial). */
workload::Trace
skewed_trace(std::int64_t light_count)
{
    workload::Trace trace;
    trace.name = "skewed-" + std::to_string(light_count);
    trace.makespan = 24 * sim::kHour;
    const sim::Time lifetime = 15 * sim::kMinute;
    const auto window =
        static_cast<std::uint64_t>(trace.makespan - lifetime);
    trace.sessions.reserve(
        static_cast<std::size_t>(light_count + kWhales));
    for (std::int64_t id = 0; id < light_count; ++id) {
        workload::SessionSpec session;
        session.id = id;
        session.start_time = static_cast<sim::Time>(
            mix64(static_cast<std::uint64_t>(id)) % window);
        session.end_time = session.start_time + lifetime;
        session.resources = cluster::ResourceSpec{4000, 16384, 1, 16.0};
        session.model = "scale";
        session.dataset = "synthetic";
        workload::CellTask task;
        task.session = id;
        task.seq = 0;
        task.submit_time = session.start_time + 60 * sim::kSecond;
        task.duration = 90 * sim::kSecond;
        task.is_gpu = true;
        session.tasks.push_back(std::move(task));
        trace.sessions.push_back(std::move(session));
    }
    // Whales: 3x the background volume split over eight sessions.
    const std::int64_t cells_per_whale = 3 * light_count / kWhales;
    const sim::Time period = trace.makespan / (cells_per_whale + 1);
    for (const std::int64_t id : whale_ids(light_count)) {
        workload::SessionSpec session;
        session.id = id;
        session.start_time = 0;
        session.end_time = trace.makespan;
        session.resources = cluster::ResourceSpec{4000, 16384, 1, 16.0};
        session.model = "scale";
        session.dataset = "synthetic-hot";
        for (std::int64_t cell = 0; cell < cells_per_whale; ++cell) {
            workload::CellTask task;
            task.session = id;
            task.seq = static_cast<std::int32_t>(cell);
            task.submit_time = (cell + 1) * period;
            task.duration = period / 2;  // serial: done before the next
            task.is_gpu = true;
            session.tasks.push_back(std::move(task));
        }
        trace.sessions.push_back(std::move(session));
    }
    return trace;
}

struct SkewRunResult
{
    core::ExperimentResults results;
    std::uint64_t sim_events = 0;
    std::uint64_t rebalanced = 0;
    double wall_seconds = 0.0;
    /** Slowest shard's serial event-loop seconds — the critical path an
     *  N-core host would be bound by (wall seconds for shards == 1). */
    double critical_seconds = 0.0;
};

SkewRunResult
run_at(const workload::Trace& trace, std::int32_t shards,
       sched::RoutingPolicyKind routing)
{
    core::RunRequest request;
    request.engine = core::kEngineFast;
    request.trace = &trace;
    request.seed = bench::kSeed;
    core::PlatformConfig& config = request.config;
    config = core::PlatformConfig::prototype_defaults();
    // Fixed ample fleet, autoscaler off — as in scale_sessions, the
    // bench measures routing, not capacity policy.
    const std::int64_t sessions =
        static_cast<std::int64_t>(trace.sessions.size());
    const auto servers =
        std::max<std::int64_t>(64, (sessions / 500 + 7) / 8 * 8);
    config.scheduler.initial_servers = static_cast<std::int32_t>(servers);
    config.scheduler.enable_autoscaler = false;
    config.scheduler.shards = shards;
    // Serial on purpose: each shard's loop is timed alone, so the
    // per-shard busy seconds are uncontended and their max is a valid
    // critical path whatever this host's core count is.
    config.scheduler.shard_parallel = false;
    config.scheduler.routing = routing;

    const auto wall_start = std::chrono::steady_clock::now();
    core::RunResponse response = core::run(request);
    const auto wall_end = std::chrono::steady_clock::now();
    SkewRunResult run;
    run.results = std::move(response.results);
    run.sim_events = response.events_executed;
    run.rebalanced = response.sessions_rebalanced;
    run.wall_seconds =
        std::chrono::duration<double>(wall_end - wall_start).count();
    const std::vector<double>& busy = response.shard_busy_seconds;
    run.critical_seconds =
        shards == 1 ? run.wall_seconds
                    : *std::max_element(busy.begin(), busy.end());
    return run;
}

}  // namespace

int
main()
{
    const bench::InjectedSlowdown slowdown_hook;
    const bool smoke = bench::smoke_mode();
    const std::int64_t light = smoke ? 20000 : 1000000;
    const workload::Trace trace = skewed_trace(light);

    std::int64_t cells = 0;
    for (const workload::SessionSpec& session : trace.sessions) {
        cells += static_cast<std::int64_t>(session.tasks.size());
    }
    bench::banner(
        "scale_skewed: routing policies on a hot-tenant trace, " +
        std::to_string(trace.sessions.size()) + " sessions / " +
        std::to_string(cells) + " cells over 24h (8 whales carry 3x the "
        "background load)" + (smoke ? " [smoke tier]" : ""));
    std::printf("%-12s %-7s %10s %10s %9s %9s %11s %10s\n", "policy",
                "shards", "tasks", "completed", "aborted", "kernels",
                "rebalanced", "imbalance");

    // critical_seconds per (policy, shards) for the summary ratio.
    double static8 = 0.0, rebalance8 = 0.0;
    for (const sched::RoutingPolicyKind routing :
         {sched::RoutingPolicyKind::kStaticHash,
          sched::RoutingPolicyKind::kLeastLoaded,
          sched::RoutingPolicyKind::kRebalance}) {
        for (const std::int32_t shards : {1, 2, 4, 8}) {
            const SkewRunResult run = run_at(trace, shards, routing);
            const sched::SchedulerStats& stats = run.results.sched_stats;
            std::printf(
                "%-12s %-7d %10zu %10llu %9zu %9llu %11llu %10.3f\n",
                sched::to_string(routing), shards,
                run.results.tasks.size(),
                static_cast<unsigned long long>(stats.executions_completed),
                run.results.aborted_count(),
                static_cast<unsigned long long>(stats.kernels_created),
                static_cast<unsigned long long>(run.rebalanced),
                stats.shard_imbalance());
            const double rate =
                run.critical_seconds > 0.0
                    ? static_cast<double>(run.sim_events) /
                          run.critical_seconds
                    : 0.0;
            if (shards == 8) {
                if (routing == sched::RoutingPolicyKind::kStaticHash) {
                    static8 = rate;
                } else if (routing ==
                           sched::RoutingPolicyKind::kRebalance) {
                    rebalance8 = rate;
                }
            }
            // Wall-clock lines: stripped from the CI gate's hash.
            std::printf("# TIMING policy=%s shards=%d wall_seconds=%.4f "
                        "critical_seconds=%.4f events_per_sec=%.0f\n",
                        sched::to_string(routing), shards,
                        run.wall_seconds, run.critical_seconds, rate);
        }
    }
    // The routing PR's acceptance figure (also a # TIMING line: the
    // ratio is wall-clock-derived and host-dependent).
    std::printf("# TIMING rebalance_vs_static_hash_at_8=%.2f\n",
                static8 > 0.0 ? rebalance8 / static8 : 0.0);
    return 0;
}
