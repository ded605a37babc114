/**
 * @file
 * micro_sched: simulation-event throughput of the sharded Global
 * Scheduler at shards ∈ {1, 2, 4, 8}.
 *
 * An identical synthetic session workload (dense session ids, so the
 * ShardRouter spreads them) is run at each shard count on plain
 * SchedulerShards, built the way the prototype engine's driver builds
 * them: each on its own simulation, with sched::shard_seed and its
 * ShardIdentity. A session's kernel and cells go to its hash shard. The
 * timed phase is one big lockstep window over the cell-execution horizon,
 * during which each shard's event loop runs on its own thread. On a
 * multi-core host the events/sec rate should scale with the shard count
 * (the sharding acceptance bar is >= 1.5x at shards=4).
 *
 * Output convention: the table rows are fully deterministic (same seed ->
 * same kernels/executions/event counts) and are hashed by the CI bench
 * gate; wall-clock figures are emitted on `# TIMING` lines, which
 * bench/check_bench.py strips before hashing.
 */
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sched/shard.hpp"
#include "sched/shard_router.hpp"
#include "sim/lockstep.hpp"

namespace {

using namespace nbos;

/** One shard and the event loop it runs on. */
struct ShardUnit
{
    ShardUnit(const sched::SchedulerConfig& config, std::int32_t index)
        : simulation(sim::Simulation::Options{
              true, &sim::SimMemoryPool::global()}),
          shard(simulation, config, sched::shard_seed(bench::kSeed, index),
                sched::ShardIdentity{index, config.shards})
    {
    }

    sim::Simulation simulation;
    sched::SchedulerShard shard;
};

struct ShardRunResult
{
    std::uint64_t kernels = 0;
    std::uint64_t executions = 0;
    std::uint64_t timed_events = 0;
    double seconds = 0.0;
    double imbalance = 0.0;
};

ShardRunResult
run_at(std::int32_t shards, std::int64_t sessions, std::int64_t cells)
{
    sched::SchedulerConfig config;
    // 24 initial servers: divisible shares down to 3 servers at shards=8,
    // so every shard slice hosts 3-replica kernels without scale-outs.
    config.initial_servers = 24;
    config.enable_autoscaler = false;
    config.shards = shards;
    // Fast Raft timers (as in the scheduler test fixtures): heartbeats
    // every 50 ms are what generate the event volume being measured.
    config.kernel.raft.election_timeout_min = 150 * sim::kMillisecond;
    config.kernel.raft.election_timeout_max = 300 * sim::kMillisecond;
    config.kernel.raft.heartbeat_interval = 50 * sim::kMillisecond;
    config.kernel.raft.snapshot_threshold = 16;

    std::vector<std::unique_ptr<ShardUnit>> units;
    for (std::int32_t i = 0; i < shards; ++i) {
        units.push_back(std::make_unique<ShardUnit>(config, i));
    }
    for (const auto& unit : units) {
        unit->shard.start();
    }
    const sched::ShardRouter router(shards);
    sim::Lockstep lockstep(units.size(), config.shard_parallel);
    const auto run_until = [&](sim::Time t) {
        lockstep.run([&units, t](std::size_t i) {
            units[i]->simulation.run_until(t);
        });
    };
    const auto events_executed = [&units] {
        std::uint64_t total = 0;
        for (const auto& unit : units) {
            total += unit->simulation.events_executed();
        }
        return total;
    };

    // Kernel creation phase (untimed): sessions 1..N, each opened on its
    // hash shard.
    const cluster::ResourceSpec spec{4000, 16384, 1, 16.0};
    for (std::int64_t session = 1; session <= sessions; ++session) {
        units[router.shard_of(session)]->shard.begin_session(session, spec);
    }
    run_until(300 * sim::kSecond);

    // Cell schedule: staggered GPU cells, spaced so a session's cells
    // never overlap. Completion is read from the summed stats afterwards
    // (no shared counters across shard threads).
    sim::Time horizon = 300 * sim::kSecond;
    for (std::int64_t session = 1; session <= sessions; ++session) {
        ShardUnit* unit = units[router.shard_of(session)].get();
        for (std::int64_t cell = 0; cell < cells; ++cell) {
            const sim::Time at = 300 * sim::kSecond +
                                 cell * 45 * sim::kSecond +
                                 ((session - 1) % 7) * 3 * sim::kSecond;
            horizon = std::max(horizon, at);
            unit->simulation.schedule_at(at, [unit, session] {
                unit->shard.submit_session(
                    session, "gpu_compute(4)", true, unit->simulation.now(),
                    [](const kernel::ExecutionResult&,
                       const sched::RequestTrace&) {});
            });
        }
    }

    // Timed phase: one lockstep window across the whole execution
    // horizon plus a drain tail — the multi-core hot loop.
    const std::uint64_t events_before = events_executed();
    const auto wall_start = std::chrono::steady_clock::now();
    run_until(horizon + 300 * sim::kSecond);
    const auto wall_end = std::chrono::steady_clock::now();

    sched::SchedulerStats stats;
    for (const auto& unit : units) {
        stats += unit->shard.stats();
        if (shards > 1) {
            stats.shard_loads.push_back(
                sched::ShardLoadSample{unit->simulation.events_executed()});
        }
    }
    ShardRunResult result;
    result.kernels = stats.kernels_created;
    result.executions = stats.executions_completed;
    result.timed_events = events_executed() - events_before;
    result.seconds =
        std::chrono::duration<double>(wall_end - wall_start).count();
    result.imbalance = stats.shard_imbalance();
    return result;
}

}  // namespace

int
main()
{
    const bool smoke = bench::smoke_mode();
    const std::int64_t sessions = smoke ? 12 : 48;
    const std::int64_t cells = smoke ? 4 : 12;

    bench::banner("micro_sched: sharded GlobalScheduler event throughput "
                  "(sessions=" +
                  std::to_string(sessions) +
                  " cells/session=" + std::to_string(cells) + ")");
    std::printf("%-8s %10s %12s %14s\n", "shards", "kernels", "executions",
                "timed_events");

    double base_rate = 0.0;
    for (const std::int32_t shards : {1, 2, 4, 8}) {
        const ShardRunResult result = run_at(shards, sessions, cells);
        std::printf("%-8d %10llu %12llu %14llu\n", shards,
                    static_cast<unsigned long long>(result.kernels),
                    static_cast<unsigned long long>(result.executions),
                    static_cast<unsigned long long>(result.timed_events));
        const double rate =
            result.seconds > 0.0
                ? static_cast<double>(result.timed_events) / result.seconds
                : 0.0;
        if (shards == 1) {
            base_rate = rate;
        }
        // Wall-clock lines: stripped from the CI gate's stdout hash.
        // imbalance is max/mean of per-shard events (routing telemetry;
        // 0.0 at shards=1, which has no per-shard view).
        std::printf("# TIMING shards=%d seconds=%.4f events_per_sec=%.0f "
                    "speedup_vs_1=%.2f imbalance=%.3f\n",
                    shards, result.seconds, rate,
                    base_rate > 0.0 ? rate / base_rate : 0.0,
                    result.imbalance);
    }
    return 0;
}
