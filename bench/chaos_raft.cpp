/**
 * @file
 * Chaos tier bench: fault-rate sweep x policies over the Raft-replicated
 * prototype. Each row runs one policy under a scaled chaos plan (message
 * drop bursts, partitions + heals, replica crash/restart, clock skew,
 * latency spikes) and prints completed/aborted work, GPU-hours against the
 * clairvoyant oracle, and the per-fault-class network drop breakdown. The
 * analytic baselines have no network to break, so their rows double as the
 * chaos-free reference at every rate.
 *
 * Env knobs (see README "Chaos tier"; parsed and validated with the
 * NBOS_BENCH_* knobs by bench::options_or_exit, so a malformed value
 * exits 2 naming the variable):
 *   NBOS_CHAOS_SEED=<u64>    chaos plan seed (0 = derive from engine seed)
 *   NBOS_CHAOS_RATE=<f>      multiply every fault-class rate (finite, >= 0)
 *   NBOS_CHAOS_RECORD=<path> run only the canonical chaos row and save its
 *                            injected schedule to <path>
 *   NBOS_CHAOS_REPLAY=<path> run only the canonical chaos row, re-executing
 *                            the schedule at <path> byte-identically
 *
 * RECORD and REPLAY print identical tables (mode details go on `# TIMING`
 * lines, which the bench gate and the CI determinism diff both strip), so
 * `diff <(record run) <(replay run)` is the replay-fidelity check.
 */
#include <chrono>
#include <cinttypes>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "chaos/config.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/generator.hpp"

namespace {

struct SweepRow
{
    nbos::core::Policy policy;
    double rate_scale;
};

}  // namespace

int
main()
{
    using namespace nbos;
    const auto wall_start = std::chrono::steady_clock::now();
    const bench::BenchOptions knobs = bench::options_or_exit();
    const bool record_mode = !knobs.chaos_record.empty();
    const bool replay_mode = !knobs.chaos_replay.empty();

    workload::WorkloadGenerator generator{sim::Rng(bench::kSeed)};
    workload::GeneratorOptions options;
    options.makespan = 4 * sim::kHour;
    options.max_sessions = 24;
    options.sessions_survive_trace = true;
    const auto trace = generator.generate(workload::TraceProfile::adobe(),
                                          bench::apply_smoke(options));

    // The chaos window covers the bulk of the trace with a settle margin.
    chaos::ChaosOptions chaos_options;
    chaos_options.start = trace.makespan / 8;
    chaos_options.horizon = trace.makespan - trace.makespan / 4;
    chaos_options.rates = chaos::ChaosRates{3.0, 2.0, 1.0, 1.0, 1.0};

    const double canonical_scale = 1.0 * knobs.chaos_rate;
    std::vector<SweepRow> rows;
    if (record_mode || replay_mode) {
        // RECORD/REPLAY pin down one canonical run; the schedule file is
        // the artifact, not the sweep.
        rows.push_back({core::Policy::kNotebookOS, canonical_scale});
    } else {
        for (const double scale : {0.0, 1.0, 2.0}) {
            for (const core::Policy policy :
                 {core::Policy::kReservation, core::Policy::kBatch,
                  core::Policy::kNotebookOS, core::Policy::kNotebookOSLCP}) {
                rows.push_back({policy, scale * knobs.chaos_rate});
            }
        }
    }

    std::shared_ptr<const chaos::ScheduleFile> replay_schedule;
    if (replay_mode) {
        replay_schedule = std::make_shared<const chaos::ScheduleFile>(
            chaos::load_schedule_file(knobs.chaos_replay));
    }

    // One record sink per chaos-enabled run; the canonical row's schedule
    // is what NBOS_CHAOS_RECORD saves.
    std::vector<std::shared_ptr<chaos::RecordSink>> sinks(rows.size());
    std::vector<core::ExperimentSpec> specs;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SweepRow& row = rows[i];
        core::ExperimentSpec spec;
        spec.engine = core::engine_name(row.policy, /*fast_mode=*/false);
        spec.trace = &trace;
        spec.config = core::PlatformConfig::prototype_defaults();
        spec.seed = bench::kSeed;
        spec.label = std::string(core::to_string(row.policy)) + "@x" +
                     std::to_string(row.rate_scale);
        // Chaos drives the prototype's network and replicas; the analytic
        // baselines have neither, so only NotebookOS rows enable it.
        if (row.policy == core::Policy::kNotebookOS &&
            (row.rate_scale > 0.0 || replay_mode)) {
            chaos::ChaosConfig& chaos_config = spec.config.scheduler.chaos;
            chaos_config.enabled = true;
            chaos_config.seed = knobs.chaos_seed;
            chaos_config.options = chaos_options;
            chaos_config.options.rates =
                chaos_options.rates.scaled(row.rate_scale);
            chaos_config.replay = replay_schedule;
            sinks[i] = std::make_shared<chaos::RecordSink>();
            chaos_config.record = sinks[i];
        }
        specs.push_back(std::move(spec));
    }

    bench::banner("Chaos: fault-rate sweep x policies (" + trace.name +
                  ", seed " + std::to_string(bench::kSeed) + ")");
    const double oracle = core::oracle_gpu_series(trace).integrate_hours(
        0, trace.makespan);
    std::printf("# oracle gpu-hours (clairvoyant floor): %.2f\n", oracle);

    const auto outcomes = bench::run_specs_or_exit(specs);

    std::printf("%-14s %-6s %-10s %-10s %-8s %-8s %-8s %-8s %-8s %-8s\n",
                "policy", "rate", "gpu-hours", "vs-oracle", "done",
                "aborted", "sent", "chaos", "dropped", "blocked");
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const core::ExperimentResults& results = outcomes[i].results;
        std::size_t done = 0;
        for (const core::TaskOutcome& task : results.tasks) {
            done += !task.aborted && task.reply >= task.submit ? 1 : 0;
        }
        const net::NetworkStats& net = results.net_stats;
        std::printf("%-14s %-6.1f %-10.2f %-10.3f %-8zu %-8zu %-8" PRIu64
                    " %-8" PRIu64 " %-8" PRIu64 " %-8" PRIu64 "\n",
                    core::to_string(results.policy), rows[i].rate_scale,
                    results.gpu_hours_provisioned(),
                    results.gpu_hours_provisioned() / oracle, done,
                    results.aborted_count(), net.sent, net.dropped_chaos,
                    net.dropped,
                    static_cast<std::uint64_t>(net.blocked_partition));
    }
    std::printf("\nInvariant: every policy's gpu-hours stay >= the oracle "
                "floor at every fault rate,\nand chaos drops appear only "
                "on chaos-enabled NotebookOS rows.\n");

    if (record_mode) {
        chaos::ScheduleFile schedule;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            if (sinks[i] != nullptr) {
                schedule = sinks[i]->merged();
            }
        }
        if (!chaos::save_schedule_file(knobs.chaos_record, schedule)) {
            std::fprintf(stderr, "[bench] cannot write schedule to %s\n",
                         knobs.chaos_record.c_str());
            return 1;
        }
        std::printf("# TIMING mode=record schedule=%s\n",
                    knobs.chaos_record.c_str());
    }
    if (replay_mode) {
        std::printf("# TIMING mode=replay schedule=%s\n",
                    knobs.chaos_replay.c_str());
    }

    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    std::printf("# TIMING seconds=%.4f rows=%zu\n", seconds, rows.size());
    return 0;
}
