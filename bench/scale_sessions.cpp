/**
 * @file
 * scale_sessions: million-session scale tier for the sharded fast
 * analytic engine (core::run, notebookos-fast) at shards ∈ {1, 2, 4, 8}.
 *
 * A synthetic 24-hour trace of short-lived notebook sessions (15-minute
 * lifetime, 3 cells each, arrival times hashed from the session id so
 * load is uniform across the day) is run through the fast engine at each
 * shard count. The fleet is fixed and the autoscaler is off, so every
 * shard slice commits its kernels outright and the merged totals are
 * identical at every shard count — the table doubles as a determinism
 * check for the sharded merge. The timed phase is the whole run
 * (admission + per-shard analytic pass + merge). Session start times are
 * hashed, so the trace is stored out of start-time order and the run
 * exercises TraceSessionSource's ordering too.
 *
 * Full tier: 1,000,000 sessions (3M cells) — the ROADMAP open-item-1
 * scale bar. Smoke tier (NBOS_BENCH_SMOKE=1, what `ctest -L scale` and
 * the CI bench gate run): 20,000 sessions, same shape.
 *
 * Output convention: table rows are fully deterministic and hashed by
 * bench/check_bench.py; wall-clock and memory figures go on `# TIMING`
 * lines, which the gate strips before hashing. The `examined` column is
 * the placement work count (load-index entries examined by every
 * placement, core::RunResponse::placement_servers_examined): three per
 * session on this ample fleet at every shard count, so a return to
 * whole-fleet placement scans changes the hash whatever the timing noise.
 * Peak RSS is per row: the kernel's high-water mark (VmHWM) is reset
 * before each run, and bytes_per_session divides it by the session count
 * (the resident trace included).
 */
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "bench_common.hpp"
#include "core/engine_api.hpp"

namespace {

using namespace nbos;

/** splitmix64: spreads session start times uniformly over the day
 *  without an RNG stream (start time is a pure function of the id, so
 *  the trace is identical however it is built or partitioned). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** The canonical scale workload: @p count sessions over a 24-hour day,
 *  each alive 15 minutes with three staggered cells (GPU, CPU, GPU)
 *  that never overlap. */
workload::Trace
scale_trace(std::int64_t count)
{
    workload::Trace trace;
    trace.name = "scale-" + std::to_string(count);
    trace.makespan = 24 * sim::kHour;
    const sim::Time lifetime = 15 * sim::kMinute;
    const auto window =
        static_cast<std::uint64_t>(trace.makespan - lifetime);
    trace.sessions.reserve(static_cast<std::size_t>(count));
    for (std::int64_t id = 0; id < count; ++id) {
        workload::SessionSpec session;
        session.id = id;
        session.start_time = static_cast<sim::Time>(
            mix64(static_cast<std::uint64_t>(id)) % window);
        session.end_time = session.start_time + lifetime;
        session.resources = cluster::ResourceSpec{4000, 16384, 1, 16.0};
        session.model = "scale";
        session.dataset = "synthetic";
        const struct
        {
            sim::Time offset;
            sim::Time duration;
            bool gpu;
        } cells[] = {
            {60 * sim::kSecond, 90 * sim::kSecond, true},
            {5 * sim::kMinute, 30 * sim::kSecond, false},
            {10 * sim::kMinute, 120 * sim::kSecond, true},
        };
        std::int32_t seq = 0;
        for (const auto& cell : cells) {
            workload::CellTask task;
            task.session = id;
            task.seq = seq++;
            task.submit_time = session.start_time + cell.offset;
            task.duration = cell.duration;
            task.is_gpu = cell.gpu;
            session.tasks.push_back(std::move(task));
        }
        trace.sessions.push_back(std::move(session));
    }
    return trace;
}

struct ScaleRunResult
{
    core::ExperimentResults results;
    std::uint64_t sim_events = 0;
    std::uint64_t placement_examined = 0;
    double seconds = 0.0;
};

ScaleRunResult
run_at(const workload::Trace& trace, std::int32_t shards)
{
    core::RunRequest request;
    request.engine = core::kEngineFast;
    request.trace = &trace;
    request.seed = bench::kSeed;
    core::PlatformConfig& config = request.config;
    config = core::PlatformConfig::prototype_defaults();
    // Fixed, ample fleet (2 sessions per GPU-hour of headroom at the
    // full tier): the bench measures engine throughput, not autoscaler
    // policy, and a capacity-unconstrained fleet is what makes the
    // merged totals shard-count-invariant.
    const std::int64_t sessions =
        static_cast<std::int64_t>(trace.sessions.size());
    const auto servers =
        std::max<std::int64_t>(64, (sessions / 500 + 7) / 8 * 8);
    config.scheduler.initial_servers = static_cast<std::int32_t>(servers);
    config.scheduler.enable_autoscaler = false;
    config.scheduler.shards = shards;
    config.scheduler.shard_parallel = true;

    const auto wall_start = std::chrono::steady_clock::now();
    core::RunResponse response = core::run(request);
    const auto wall_end = std::chrono::steady_clock::now();
    ScaleRunResult run;
    run.results = std::move(response.results);
    run.sim_events = response.events_executed;
    run.placement_examined = response.placement_servers_examined;
    run.seconds =
        std::chrono::duration<double>(wall_end - wall_start).count();
    return run;
}

}  // namespace

int
main()
{
    const bench::InjectedSlowdown slowdown_hook;
    const bool smoke = bench::smoke_mode();
    const std::int64_t sessions = smoke ? 20000 : 1000000;
    const workload::Trace trace = scale_trace(sessions);

    std::int64_t cells = 0;
    for (const workload::SessionSpec& session : trace.sessions) {
        cells += static_cast<std::int64_t>(session.tasks.size());
    }
    bench::banner(
        "scale_sessions: sharded fast engine at " +
        std::to_string(sessions) + " sessions / " + std::to_string(cells) +
        " cells over 24h" + (smoke ? " [smoke tier]" : ""));
    std::printf("%-8s %10s %10s %10s %9s %11s %11s %12s %10s\n",
                "shards", "sessions", "tasks", "completed", "aborted",
                "migrations", "scale_outs", "sim_events", "examined");

    double base_seconds = 0.0;
    for (const std::int32_t shards : {1, 2, 4, 8}) {
        bench::reset_peak_rss();
        const ScaleRunResult run = run_at(trace, shards);
        const double peak_mb = bench::peak_rss_mb();
        const sched::SchedulerStats& stats = run.results.sched_stats;
        std::printf(
            "%-8d %10lld %10zu %10llu %9zu %11llu %11llu %12llu %10llu\n",
            shards, static_cast<long long>(sessions),
            run.results.tasks.size(),
            static_cast<unsigned long long>(stats.executions_completed),
            run.results.aborted_count(),
            static_cast<unsigned long long>(stats.migrations),
            static_cast<unsigned long long>(stats.scale_outs),
            static_cast<unsigned long long>(run.sim_events),
            static_cast<unsigned long long>(run.placement_examined));
        if (shards == 1) {
            base_seconds = run.seconds;
        }
        // Wall-clock/memory lines: stripped from the CI gate's hash.
        // imbalance is max/mean of per-shard events (routing telemetry;
        // 0.0 for the shards=1 run, which has no shard view).
        std::printf("# TIMING shards=%d seconds=%.4f events_per_sec=%.0f "
                    "sessions_per_sec=%.0f speedup_vs_1=%.2f "
                    "peak_rss_mb=%.1f bytes_per_session=%.0f "
                    "imbalance=%.3f\n",
                    shards, run.seconds,
                    run.seconds > 0.0
                        ? static_cast<double>(run.sim_events) / run.seconds
                        : 0.0,
                    run.seconds > 0.0
                        ? static_cast<double>(sessions) / run.seconds
                        : 0.0,
                    run.seconds > 0.0 && base_seconds > 0.0
                        ? base_seconds / run.seconds
                        : 0.0,
                    peak_mb,
                    peak_mb * 1048576.0 / static_cast<double>(sessions),
                    stats.shard_imbalance());
    }
    return 0;
}
