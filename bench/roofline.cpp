/**
 * @file
 * roofline: a CARM-style cache-aware characterization of the three hot
 * loops this codebase spends its cycles in, anchoring the cache-conscious
 * hot-path work (timer wheel, SoA scheduler tables, arena reuse) to
 * measured numbers instead of folklore.
 *
 * For each loop the bench prints a deterministic characterization row —
 * events, a bytes-touched-per-event model derived from the data-structure
 * layout, a structural-ops-per-event model, and the resulting arithmetic
 * intensity (ops/byte) — followed by `# TIMING` lines carrying the
 * measured ns/event, events/sec, and effective bandwidth. The table rows
 * are hashed by bench/check_bench.py; the TIMING lines are stripped
 * before hashing, so re-runs on different hardware only move the timings.
 *
 * Loops under study:
 *
 *  0. stream — a read+write triad over a buffer far larger than LLC,
 *     measuring the memory-bandwidth ceiling the other rows sit under.
 *  1. sim-dispatch — the Simulation event loop under the Raft election
 *     churn mix (heartbeats cancelling and rescheduling far-future
 *     election timers), the dominant loop of the prototype engine. Run
 *     twice in-binary, hierarchical timer wheel on vs off (pure binary
 *     heap), and the TIMING line reports the measured speedup; both runs
 *     must execute identical event counts (asserted, printed).
 *  2. window-scan — a window scan of per-session weights and "ended"
 *     flags: streaming the SoA SessionTable columns (id, weight, flag)
 *     versus chasing an equivalent std::map's nodes; the TIMING line
 *     reports the SoA-vs-map speedup.
 *  3. fast-tick — the fast analytic engine end to end through the
 *     unified run API (core::run, streamed, static_hash x 2 shards):
 *     events/sec over the whole engine, the figure the scale benches
 *     track.
 *
 * Full tier ~1-2 s; smoke tier (NBOS_BENCH_SMOKE=1, what `ctest -L
 * smoke` and the CI bench gate run) shrinks every loop, same shape.
 */
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/engine_api.hpp"
#include "sched/session_table.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "workload/profiles.hpp"

namespace {

using namespace nbos;

double
elapsed_seconds(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         since)
        .count();
}

/** One deterministic characterization row. The bytes/ops columns are
 *  layout-derived models (documented per loop), not measurements — that
 *  is what keeps them bit-stable under the bench gate's hash. */
void
print_row(const char* loop, std::uint64_t events, double bytes_per_event,
          double ops_per_event)
{
    std::printf("%-14s %12llu %10.1f %8.1f %10.4f\n", loop,
                static_cast<unsigned long long>(events), bytes_per_event,
                ops_per_event,
                bytes_per_event > 0.0 ? ops_per_event / bytes_per_event
                                      : 0.0);
}

void
print_header()
{
    std::printf("%-14s %12s %10s %8s %10s\n", "loop", "events", "bytes/ev",
                "ops/ev", "ai");
}

/* ------------------------------------------------------------------ */
/* 0. stream: the bandwidth ceiling                                    */
/* ------------------------------------------------------------------ */

void
run_stream(bool smoke)
{
    // 64 MB (full) is far past any LLC here; the triad streams one read
    // and one write array of uint64.
    const std::size_t words = (smoke ? 8u : 64u) * 1024u * 1024u / 8u;
    const int passes = smoke ? 4 : 8;
    std::vector<std::uint64_t> src(words), dst(words);
    for (std::size_t i = 0; i < words; ++i) {
        src[i] = i * 0x9e3779b97f4a7c15ULL;
    }
    const auto wall_start = std::chrono::steady_clock::now();
    std::uint64_t checksum = 0;
    for (int pass = 0; pass < passes; ++pass) {
        for (std::size_t i = 0; i < words; ++i) {
            dst[i] = src[i] + static_cast<std::uint64_t>(pass);
        }
        checksum ^= dst[words - 1];
    }
    const double seconds = elapsed_seconds(wall_start);

    const std::uint64_t events =
        static_cast<std::uint64_t>(words) * static_cast<std::uint64_t>(passes);
    // Model: one 8-byte load + one 8-byte store per word, one add.
    print_row("stream", events, 16.0, 1.0);
    std::printf("# checksum stream=%016llx\n",
                static_cast<unsigned long long>(checksum));
    std::printf("# TIMING loop=stream seconds=%.4f gb_per_sec=%.2f\n",
                seconds,
                seconds > 0.0 ? static_cast<double>(events) * 16.0 /
                                    (seconds * 1e9)
                              : 0.0);
}

/* ------------------------------------------------------------------ */
/* 1. sim-dispatch: election churn, wheel on vs off                    */
/* ------------------------------------------------------------------ */

struct DispatchRun
{
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t elections_fired = 0;
    double seconds = 0.0;
};

/** The Raft election pattern: every kernel holds a far-future election
 *  timer that each heartbeat cancels and rebuilds, so almost every timer
 *  dies staged — the exact case the hierarchical wheel makes O(1). */
DispatchRun
run_dispatch(bool wheel, int kernels, int rounds)
{
    sim::Simulation::Options options;
    options.timer_wheel = wheel;
    options.recycle = nullptr;
    sim::Simulation simulation(options);
    sim::Rng rng(bench::kSeed);

    DispatchRun run;
    std::vector<sim::EventId> election(static_cast<std::size_t>(kernels), 0);
    const sim::Time heartbeat = 1 * sim::kSecond;

    const auto arm_election = [&](std::size_t k) {
        const sim::Time timeout = static_cast<sim::Time>(
            rng.uniform(2.0 * sim::kSecond, 4.0 * sim::kSecond));
        election[k] = simulation.schedule_after(timeout, [&run] {
            ++run.elections_fired;
        });
    };
    for (std::size_t k = 0; k < election.size(); ++k) {
        arm_election(k);
    }

    const auto wall_start = std::chrono::steady_clock::now();
    for (int round = 1; round <= rounds; ++round) {
        const sim::Time tick = round * heartbeat;
        for (std::size_t k = 0; k < election.size(); ++k) {
            const sim::Time jitter =
                static_cast<sim::Time>(rng.uniform_int(0, sim::kMillisecond));
            simulation.schedule_at(tick + jitter, [&, k] {
                if (simulation.cancel(election[k])) {
                    ++run.cancelled;
                }
                arm_election(k);
            });
        }
        simulation.run_until(tick + heartbeat / 2);
    }
    // Drain: let the final round's election timers fire.
    simulation.run_until((rounds + 6) * heartbeat);
    run.seconds = elapsed_seconds(wall_start);
    run.executed = simulation.events_executed();
    return run;
}

void
run_dispatch_section(bool smoke)
{
    const int kernels = smoke ? 1000 : 10000;
    const int rounds = smoke ? 10 : 40;

    const DispatchRun heap_run = run_dispatch(false, kernels, rounds);
    const DispatchRun wheel_run = run_dispatch(true, kernels, rounds);

    // The wheel is a staging structure in front of the same heap order:
    // both variants must execute the identical event sequence.
    const bool identical = heap_run.executed == wheel_run.executed &&
                           heap_run.cancelled == wheel_run.cancelled &&
                           heap_run.elections_fired ==
                               wheel_run.elections_fired;

    // Model (per executed event, binary-heap variant): the popped ticket
    // plus a sift-down touching 2 tickets per level of a ~kernels-deep
    // heap (24 B tickets), one 64 B slot write-back, and the callback's
    // own cache line; comparisons dominate the structural ops.
    double levels = 1.0;
    for (int n = kernels; n > 1; n /= 2) {
        levels += 1.0;
    }
    const double ticket_bytes = 24.0;
    const double slot_bytes = 64.0;
    const double bytes_per_event =
        ticket_bytes * (1.0 + 2.0 * levels) + slot_bytes;
    const double ops_per_event = 2.0 * levels + 8.0;

    print_row("sim-dispatch", wheel_run.executed, bytes_per_event,
              ops_per_event);
    std::printf("# sim-dispatch cancelled=%llu elections_fired=%llu "
                "wheel_heap_identical=%s\n",
                static_cast<unsigned long long>(wheel_run.cancelled),
                static_cast<unsigned long long>(wheel_run.elections_fired),
                identical ? "yes" : "NO");
    const double heap_rate =
        heap_run.seconds > 0.0
            ? static_cast<double>(heap_run.executed) / heap_run.seconds
            : 0.0;
    const double wheel_rate =
        wheel_run.seconds > 0.0
            ? static_cast<double>(wheel_run.executed) / wheel_run.seconds
            : 0.0;
    std::printf("# TIMING loop=sim-dispatch heap_seconds=%.4f "
                "wheel_seconds=%.4f heap_events_per_sec=%.0f "
                "wheel_events_per_sec=%.0f wheel_speedup=%.2fx\n",
                heap_run.seconds, wheel_run.seconds, heap_rate, wheel_rate,
                heap_rate > 0.0 ? wheel_rate / heap_rate : 0.0);
}

/* ------------------------------------------------------------------ */
/* 2. window-scan: SoA columns vs map nodes                            */
/* ------------------------------------------------------------------ */

struct ScanResult
{
    std::uint64_t weight_sum = 0;
    std::uint64_t live = 0;
    double seconds = 0.0;
};

void
run_window_scan(bool smoke)
{
    const std::int32_t rows = smoke ? 4096 : 131072;
    const int scans = smoke ? 64 : 256;
    constexpr std::uint8_t kEnded = 4;  // the "session ended" flag bit

    struct Cold
    {
        std::int64_t kernel = -1;
        std::uint64_t pad[3] = {0, 0, 0};
    };

    // The SoA table under test, and the layout it replaced: one map node
    // per session with the hot fields embedded next to the cold ones.
    sched::SessionTable<Cold> table;
    struct MapRecord
    {
        std::uint64_t weight = 0;
        std::uint8_t flags = 0;
        Cold cold{};
    };
    std::map<std::int64_t, MapRecord> map_table;

    sim::Rng rng(bench::kSeed);
    for (std::int32_t i = 0; i < rows; ++i) {
        const std::int64_t id = i * 7 + 1;
        const std::int32_t row = table.insert(id);
        const std::uint64_t weight =
            static_cast<std::uint64_t>(rng.uniform_int(0, 16));
        const std::uint8_t flags = rng.bernoulli(0.125) ? kEnded : 0;
        table.weight_at(row) = weight;
        table.flags_at(row) = flags;
        map_table.emplace(id, MapRecord{weight, flags, {}});
    }

    const auto scan_soa = [&] {
        ScanResult result;
        const auto wall_start = std::chrono::steady_clock::now();
        const auto& flags = table.flags();
        const auto& weights = table.weights();
        for (int pass = 0; pass < scans; ++pass) {
            for (std::size_t i = 0; i < weights.size(); ++i) {
                if ((flags[i] & kEnded) == 0) {
                    ++result.live;
                }
                result.weight_sum += weights[i];
            }
        }
        result.seconds = elapsed_seconds(wall_start);
        return result;
    };
    const auto scan_map = [&] {
        ScanResult result;
        const auto wall_start = std::chrono::steady_clock::now();
        for (int pass = 0; pass < scans; ++pass) {
            for (const auto& [id, record] : map_table) {
                if ((record.flags & kEnded) == 0) {
                    ++result.live;
                }
                result.weight_sum += record.weight;
            }
        }
        result.seconds = elapsed_seconds(wall_start);
        return result;
    };

    const ScanResult map_result = scan_map();
    const ScanResult soa_result = scan_soa();
    const bool identical =
        map_result.weight_sum == soa_result.weight_sum &&
        map_result.live == soa_result.live;

    const std::uint64_t events =
        static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(scans);
    // Model (per row, SoA): 8 B weight + 1 B flag streamed from two dense
    // columns; flag test, weight add, live increment.
    print_row("window-scan", events, 9.0, 3.0);
    std::printf("# window-scan weight_sum=%llu live=%llu "
                "soa_map_identical=%s\n",
                static_cast<unsigned long long>(soa_result.weight_sum),
                static_cast<unsigned long long>(soa_result.live),
                identical ? "yes" : "NO");
    const double soa_rate =
        soa_result.seconds > 0.0
            ? static_cast<double>(events) / soa_result.seconds
            : 0.0;
    std::printf("# TIMING loop=window-scan map_seconds=%.4f "
                "soa_seconds=%.4f rows_per_sec=%.0f gb_per_sec=%.2f "
                "soa_speedup=%.2fx\n",
                map_result.seconds, soa_result.seconds, soa_rate,
                soa_rate * 9.0 / 1e9,
                soa_result.seconds > 0.0
                    ? map_result.seconds / soa_result.seconds
                    : 0.0);
}

/* ------------------------------------------------------------------ */
/* 3. fast-tick: the analytic engine end to end                        */
/* ------------------------------------------------------------------ */

void
run_fast_tick(bool smoke)
{
    workload::GeneratorOptions options;
    options.makespan = smoke ? 6 * sim::kHour : 24 * sim::kHour;
    options.max_sessions = smoke ? 300 : 2000;
    options.arrival_rate_scale = 8.0;

    const auto profile = workload::ProfileRegistry::instance().create(
        workload::kProfileDiurnal);

    core::RunRequest request;
    request.engine = core::kEngineFast;
    request.config = core::PlatformConfig::prototype_defaults();
    request.config.scheduler.shard_parallel = false;
    request.seed = bench::kSeed;
    request.shards = 2;
    request.routing = sched::RoutingPolicyKind::kStaticHash;

    const auto wall_start = std::chrono::steady_clock::now();
    const auto source = profile->open(bench::kSeed, options);
    request.source = source.get();
    const core::RunResponse run = core::run(request);
    const double seconds = elapsed_seconds(wall_start);

    // Model (per simulation event): one 24 B ticket + 64 B slot through
    // the event loop, one ~96 B kernel-table row, one server probe (~64 B
    // line); ~40 structural ops covering the placement arithmetic.
    print_row("fast-tick", run.events_executed, 248.0, 40.0);
    std::printf("# fast-tick sessions=%d tasks=%zu completed=%llu\n",
                options.max_sessions, run.results.tasks.size(),
                static_cast<unsigned long long>(
                    run.results.sched_stats.executions_completed));
    std::printf("# TIMING loop=fast-tick seconds=%.4f "
                "events_per_sec=%.0f\n",
                seconds,
                seconds > 0.0
                    ? static_cast<double>(run.events_executed) / seconds
                    : 0.0);
}

}  // namespace

int
main()
{
    const bench::InjectedSlowdown slowdown_hook;
    const bool smoke = bench::smoke_mode();
    bench::banner(std::string("roofline: hot-loop characterization") +
                  (smoke ? " [smoke tier]" : ""));
    print_header();
    run_stream(smoke);
    run_dispatch_section(smoke);
    run_window_scan(smoke);
    run_fast_tick(smoke);
    return 0;
}
