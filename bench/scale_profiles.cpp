/**
 * @file
 * scale_profiles: the workload-profile generator family on the streamed
 * scale path (ROADMAP item 3).
 *
 * Phase 1 (memory proof, run first because the peak RSS it reports,
 * VmHWM, never decreases unless reset):
 * stream-generate the `flash_crowd` profile at the million-session tier
 * straight into a counting/FNV-hashing sink — no trace, no file, O(live
 * session) memory — and report the byte count, content hash, and peak
 * RSS. The acceptance bar: the full tier's peak RSS stays within 2x of
 * the 20k-session smoke tier's, because memory tracks the live session
 * population, not the trace length (measured on the reference runner:
 * smoke ≈ 4.1 MB, full tier ≈ 7.8 MB for 1.0M sessions / 238 MB of
 * trace bytes — 1.9x).
 *
 * Phase 2: the profile × routing grid at shards = 8 through the fast
 * engine's streamed driver (core::run with a SessionSource) — every named
 * profile under static_hash / least_loaded / rebalance on one table.
 *
 * Phase 3: a small streamed prototype-engine spot check (diurnal at
 * shards = 2 under rebalance), pinning the discrete-event streamed
 * driver into the hashed output as well.
 *
 * Output convention: table rows are fully deterministic and hashed by
 * bench/check_bench.py; wall-clock and memory figures go on `# TIMING`
 * lines, which the gate strips before hashing.
 *
 * Full tier: 1,000,000 streamed sessions in phase 1, 5,000-session grid
 * cells in phase 2. Smoke tier (NBOS_BENCH_SMOKE=1, what `ctest -L
 * scale` and the CI bench gate run): 20,000 / 300, same shape.
 */
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/engine_api.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_io.hpp"

namespace {

using namespace nbos;

double
elapsed_seconds(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         since)
        .count();
}

/** Null sink that FNV-1a-hashes and counts every byte written — the
 *  streamed generation "file" without any disk or memory footprint. */
class HashingSink : public std::streambuf
{
  public:
    std::uint64_t hash() const { return hash_; }
    std::uint64_t bytes() const { return bytes_; }

  protected:
    int_type overflow(int_type ch) override
    {
        if (ch != traits_type::eof()) {
            mix(static_cast<unsigned char>(ch));
        }
        return ch;
    }

    std::streamsize xsputn(const char* data, std::streamsize count) override
    {
        for (std::streamsize i = 0; i < count; ++i) {
            mix(static_cast<unsigned char>(data[i]));
        }
        return count;
    }

  private:
    void mix(unsigned char byte)
    {
        hash_ ^= byte;
        hash_ *= 1099511628211ULL;
        ++bytes_;
    }

    std::uint64_t hash_ = 14695981039346656037ULL;
    std::uint64_t bytes_ = 0;
};

/** Phase 1: stream the flash_crowd profile at the scale tier into the
 *  hashing sink, counting with a first pass exactly like
 *  generate_trace_stream does (so the emitted bytes are its bytes). */
void
run_streaming_phase(bool smoke)
{
    workload::GeneratorOptions options;
    options.makespan = 2 * sim::kHour;
    options.max_sessions = smoke ? 20000 : 1000000;
    options.arrival_rate_scale = smoke ? 2000.0 : 100000.0;

    const auto profile =
        workload::ProfileRegistry::instance().create(
            workload::kProfileFlashCrowd);

    bench::banner("scale_profiles phase 1: streamed generation of '" +
                  profile->name() + "' at " +
                  std::to_string(options.max_sessions) + " sessions" +
                  (smoke ? " [smoke tier]" : ""));

    const auto wall_start = std::chrono::steady_clock::now();
    std::uint64_t sessions = 0;
    std::uint64_t tasks = 0;
    {
        const auto source = profile->open(bench::kSeed, options);
        workload::SessionSpec session;
        while (source->next(session)) {
            ++sessions;
            tasks += session.tasks.size();
        }
    }
    HashingSink sink;
    {
        std::ostream out(&sink);
        const auto source = profile->open(bench::kSeed, options);
        workload::TraceWriter writer(out, source->trace_name(),
                                     source->makespan(), sessions);
        workload::SessionSpec session;
        while (source->next(session)) {
            writer.write_session(session);
        }
        writer.finish();
    }
    const double seconds = elapsed_seconds(wall_start);

    std::printf("%-12s %10s %10s %14s %18s\n", "profile", "sessions",
                "tasks", "bytes", "fnv1a");
    std::printf("%-12s %10llu %10llu %14llu %018llx\n",
                profile->name().c_str(),
                static_cast<unsigned long long>(sessions),
                static_cast<unsigned long long>(tasks),
                static_cast<unsigned long long>(sink.bytes()),
                static_cast<unsigned long long>(sink.hash()));
    std::printf("# TIMING phase=stream seconds=%.4f sessions_per_sec=%.0f "
                "peak_rss_mb=%.1f\n",
                seconds,
                seconds > 0.0 ? static_cast<double>(sessions) / seconds
                              : 0.0,
                bench::peak_rss_mb());
}

/** Phase 2: every registered profile under every routing policy on the
 *  streamed fast engine at shards = 8. */
void
run_grid_phase(bool smoke)
{
    workload::GeneratorOptions options;
    options.makespan = smoke ? 6 * sim::kHour : 24 * sim::kHour;
    options.max_sessions = smoke ? 300 : 5000;
    options.arrival_rate_scale = 8.0;

    bench::banner(
        "scale_profiles phase 2: profile x routing grid, streamed fast "
        "engine, shards=8" +
        std::string(smoke ? " [smoke tier]" : ""));
    std::printf("%-18s %-12s %9s %10s %9s %11s %11s %12s\n", "profile",
                "routing", "tasks", "completed", "aborted", "migrations",
                "rebalanced", "sim_events");

    const workload::ProfileRegistry& registry =
        workload::ProfileRegistry::instance();
    for (const std::string& name : registry.names()) {
        const auto profile = registry.create(name);
        for (const sched::RoutingPolicyKind routing :
             {sched::RoutingPolicyKind::kStaticHash,
              sched::RoutingPolicyKind::kLeastLoaded,
              sched::RoutingPolicyKind::kRebalance}) {
            core::RunRequest request;
            request.engine = core::kEngineFast;
            request.config = core::PlatformConfig::prototype_defaults();
            request.config.scheduler.shards = 8;
            request.config.scheduler.shard_parallel = true;
            request.seed = bench::kSeed;
            request.routing = routing;

            const auto wall_start = std::chrono::steady_clock::now();
            const auto source = profile->open(bench::kSeed, options);
            request.source = source.get();
            const core::RunResponse run = core::run(request);
            const double seconds = elapsed_seconds(wall_start);

            const sched::SchedulerStats& stats = run.results.sched_stats;
            std::printf(
                "%-18s %-12s %9zu %10llu %9zu %11llu %11llu %12llu\n",
                name.c_str(), sched::to_string(routing),
                run.results.tasks.size(),
                static_cast<unsigned long long>(
                    stats.executions_completed),
                run.results.aborted_count(),
                static_cast<unsigned long long>(stats.migrations),
                static_cast<unsigned long long>(run.sessions_rebalanced),
                static_cast<unsigned long long>(run.events_executed));
            std::printf("# TIMING profile=%s routing=%s seconds=%.4f "
                        "imbalance=%.3f peak_rss_mb=%.1f\n",
                        name.c_str(), sched::to_string(routing), seconds,
                        stats.shard_imbalance(), bench::peak_rss_mb());
        }
    }
}

/** Phase 3: the prototype engine's streamed driver on a small diurnal
 *  stream (shards = 2, rebalance). */
void
run_prototype_phase(bool smoke)
{
    workload::GeneratorOptions options;
    options.makespan = 2 * sim::kHour;
    options.max_sessions = smoke ? 40 : 120;
    options.arrival_rate_scale = 8.0;

    bench::banner(
        "scale_profiles phase 3: streamed prototype engine, diurnal, "
        "shards=2, rebalance" +
        std::string(smoke ? " [smoke tier]" : ""));

    core::RunRequest request;
    request.engine = core::kEnginePrototype;
    request.config = core::PlatformConfig::prototype_defaults();
    request.seed = bench::kSeed;
    request.shards = 2;
    request.routing = sched::RoutingPolicyKind::kRebalance;

    const auto profile = workload::ProfileRegistry::instance().create(
        workload::kProfileDiurnal);
    const auto wall_start = std::chrono::steady_clock::now();
    const auto source = profile->open(bench::kSeed, options);
    request.source = source.get();
    const core::ExperimentResults results =
        core::run(request).results;
    const double seconds = elapsed_seconds(wall_start);

    std::printf("%-12s %9s %10s %9s %11s\n", "profile", "tasks",
                "completed", "aborted", "migrations");
    std::printf("%-12s %9zu %10llu %9zu %11llu\n", "diurnal",
                results.tasks.size(),
                static_cast<unsigned long long>(
                    results.sched_stats.executions_completed),
                results.aborted_count(),
                static_cast<unsigned long long>(
                    results.sched_stats.migrations));
    std::printf("# TIMING phase=prototype seconds=%.4f peak_rss_mb=%.1f\n",
                seconds, bench::peak_rss_mb());
}

}  // namespace

int
main()
{
    const bool smoke = bench::smoke_mode();
    run_streaming_phase(smoke);
    run_grid_phase(smoke);
    run_prototype_phase(smoke);
    return 0;
}
