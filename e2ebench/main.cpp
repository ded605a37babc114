/**
 * @file
 * nbos_e2e: one workload of the end-to-end benchmark.
 *
 *   nbos_e2e --workload <fast_scale|fast_flash|proto_excerpt>
 *            [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
 *
 * Repeats "build the input, run it through core::run, check the outputs"
 * until S seconds have passed, then prints each metric on its own line and,
 * as the last line, the result JSON. With --trace 0 the metrics are the
 * end-to-end ones (medians over repetitions); with --trace 1 they are the
 * per-layer ones, taken from spans the benchmark records around its own
 * calls and from the public result structs. A traced run alternates
 * untraced and traced repetitions so it can report the tracing overhead.
 *
 * Exit status: 0 when every check passed, 1 when one failed or the run
 * threw, 2 on a usage error.
 */
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace nbos;

/** Timed input builds for setup_s: at least kSetupSamples per run, and
 *  after each repetition at least kSetupSamplesPerRep lasting at least
 *  kSetupSecondsPerRep, so the samples spread over the whole run. */
constexpr std::size_t kSetupSamples = 31;
constexpr std::size_t kSetupSamplesPerRep = 4;
constexpr double kSetupSecondsPerRep = 0.05;
constexpr double kSetupBatchSeconds = 0.002;
/** Measured repetitions per run at least (per kind in a traced run). */
constexpr std::size_t kMinReps = 3;
constexpr e2e::Better kHigher = e2e::Better::kHigher;

struct Args
{
    std::string workload;
    std::uint64_t seed = e2e::kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string spans;
};

[[noreturn]] void
usage(const std::string& problem)
{
    std::fprintf(stderr,
                 "nbos_e2e: %s\nusage: nbos_e2e --workload "
                 "<fast_scale|fast_flash|proto_excerpt> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--spans PATH]\n",
                 problem.c_str());
    std::exit(2);
}

Args
parse_args(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage("missing value for " + flag);
        }
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0') {
                usage("--seed '" + value + "' is not an unsigned integer");
            }
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(args.seconds > 0.0) ||
                args.seconds > 3600.0) {
                usage("--seconds '" + value + "' is not in (0, 3600]");
            }
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") {
                usage("--trace '" + value + "' is not 0 or 1");
            }
            args.trace = value == "1";
        } else if (flag == "--spans") {
            args.spans = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (e2e::find_workload(args.workload) == nullptr) {
        usage("unknown workload '" + args.workload + "'");
    }
    return args;
}

double
seconds_since(std::int64_t start_ns)
{
    return static_cast<double>(e2e::Tracer::now_ns() - start_ns) * 1e-9;
}

/** Reset the kernel's peak-RSS mark (VmHWM) to the current RSS, so each
 *  repetition's peak is its own. */
void
reset_peak_rss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** VmHWM of this process in MB. */
double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
        }
    }
    return 0.0;
}

/** Host measurements and simulated outcome of one repetition. */
struct Rep
{
    bool traced = false;
    double run_s = 0.0;
    double peak_rss_mb = 0.0;
    double build_s = 0.0;
    double pull_s = 0.0;
    double self_s = 0.0;
    double busy_max_s = 0.0;
    double busy_sum_s = 0.0;
    bool passed = true;
    e2e::Outcome outcome;

    double cells_per_s() const
    {
        return static_cast<double>(outcome.completed) / run_s;
    }
};

Rep
run_rep(const e2e::Workload& workload, std::uint64_t seed,
        const e2e::Counts& expected, e2e::Tracer* tracer,
        std::int32_t id, std::vector<std::string>& errors)
{
    Rep rep;
    rep.traced = tracer != nullptr;
    if (tracer != nullptr) {
        tracer->set_run(id);
    }
    reset_peak_rss();
    e2e::Input input =
        e2e::build_input(workload, seed, e2e::Size::kFull, tracer);

    const core::RunRequest request = e2e::make_request(workload, input);
    core::RunResponse response;
    std::int32_t run_span = -1;
    {
        const e2e::ScopedSpan span(tracer, "core.run");
        run_span = span.id();
        const std::int64_t run_start = e2e::Tracer::now_ns();
        response = core::run(request);
        rep.run_s = seconds_since(run_start);
    }
    rep.peak_rss_mb = peak_rss_mb();

    const e2e::InputSummary summary = e2e::summarize(input);
    const e2e::CheckSpec spec = e2e::check_spec(workload, expected, summary);
    for (const std::string& error : e2e::check_outputs(response, spec)) {
        errors.push_back("repetition " + std::to_string(id) + ": " + error);
        rep.passed = false;
    }
    rep.outcome = e2e::make_outcome(response, summary);
    for (const double busy : response.shard_busy_seconds) {
        rep.busy_max_s = std::max(rep.busy_max_s, busy);
        rep.busy_sum_s += busy;
    }
    if (tracer != nullptr) {
        rep.build_s = tracer->total_seconds("workload.build", id);
        rep.pull_s = tracer->total_seconds("workload.next", id);
        rep.self_s = tracer->self_seconds(run_span);
    }
    return rep;
}

/**
 * Timings of building the input, for setup_s. A streamed input only opens
 * its source (well under a microsecond), so each sample is the mean over a
 * batch of builds lasting at least kSetupBatchSeconds; a materialized
 * trace is one build per sample. Samples are taken between repetitions,
 * spread over the run, and setup_s is the fastest of them: a shared host
 * can run the same build at half speed for seconds to minutes at a time,
 * so the median follows how long a run spent slowed, while the fastest
 * sample follows the cost of the build itself.
 */
class SetupSampler
{
  public:
    SetupSampler(const e2e::Workload& workload, std::uint64_t seed)
        : workload_(workload), seed_(seed)
    {
        while (time_batch() * static_cast<double>(batch_) <
               kSetupBatchSeconds) {
            batch_ *= 2;
        }
    }

    /** At least @p count samples, and more until @p seconds have passed. */
    void sample(std::size_t count, double seconds)
    {
        const std::int64_t start = e2e::Tracer::now_ns();
        for (std::size_t i = 0; i < count || seconds_since(start) < seconds;
             ++i) {
            samples_.push_back(time_batch());
        }
    }

    const std::vector<double>& samples() const { return samples_; }

  private:
    double time_batch() const
    {
        const std::int64_t start = e2e::Tracer::now_ns();
        for (std::size_t i = 0; i < batch_; ++i) {
            const e2e::Input input = e2e::build_input(
                workload_, seed_, e2e::Size::kFull, nullptr);
        }
        return seconds_since(start) / static_cast<double>(batch_);
    }

    const e2e::Workload& workload_;
    std::uint64_t seed_;
    std::size_t batch_ = 1;
    std::vector<double> samples_;
};

template <typename Field>
double
median_of(const std::vector<Rep>& reps, bool traced, Field field)
{
    std::vector<double> values;
    for (const Rep& rep : reps) {
        if (rep.traced == traced) {
            values.push_back(field(rep));
        }
    }
    return e2e::median(std::move(values));
}

double
ratio(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

std::vector<e2e::Metric>
end_to_end_metrics(const Rep& first, const std::vector<Rep>& reps,
                   const std::vector<double>& setups)
{
    const e2e::Outcome& o = first.outcome;
    return {
        {"cells_per_s",
         median_of(reps, false, [](const Rep& r) { return r.cells_per_s(); }),
         "cells/s", kHigher},
        {"setup_s", *std::min_element(setups.begin(), setups.end()), "s"},
        {"peak_rss_mb", first.peak_rss_mb, "MB"},
        {"interactivity_p50_s", o.interactivity_p50_s, "sim_s"},
        {"interactivity_p99_s", o.interactivity_p99_s, "sim_s"},
        {"gpu_hours_ratio",
         ratio(o.gpu_hours_provisioned, o.reservation_gpu_hours), "ratio"},
        {"completed_frac",
         ratio(static_cast<double>(o.completed),
               static_cast<double>(o.cells)),
         "fraction", kHigher},
    };
}

std::vector<e2e::Metric>
per_layer_metrics(const Rep& first, const std::vector<Rep>& reps)
{
    const e2e::Outcome& o = first.outcome;
    // Host figures come from one traced repetition, the one with the
    // median run time, so its span figures add up (self + pull = run).
    std::vector<const Rep*> traced;
    for (const Rep& rep : reps) {
        if (rep.traced) {
            traced.push_back(&rep);
        }
    }
    std::sort(traced.begin(), traced.end(), [](const Rep* a, const Rep* b) {
        return a->run_s < b->run_s;
    });
    const Rep& t = *traced[(traced.size() - 1) / 2];
    const double cells = static_cast<double>(o.cells);
    const double untraced_rate =
        median_of(reps, false, [](const Rep& r) { return r.cells_per_s(); });
    const double traced_rate =
        median_of(reps, true, [](const Rep& r) { return r.cells_per_s(); });
    const auto count = [](std::uint64_t value) {
        return static_cast<double>(value);
    };
    const sched::SchedulerStats& s = o.stats;
    return {
        {"workload.sessions", count(o.sessions), "count", kHigher},
        {"workload.cells", cells, "count", kHigher},
        {"workload.build_s", t.build_s, "s"},
        {"workload.pull_s", t.pull_s, "s"},
        {"core.run_s", t.run_s, "s"},
        {"core.self_s", t.self_s, "s"},
        {"core.rss_bytes_per_session",
         ratio(first.peak_rss_mb * 1048576.0, count(o.sessions)),
         "B"},
        {"core.interactivity_samples", count(o.interactivity_samples),
         "count", kHigher},
        {"sched.shard_busy_max_s", t.busy_max_s, "s"},
        {"sched.shard_busy_sum_s", t.busy_sum_s, "s"},
        {"sched.imbalance", s.shard_imbalance(), "ratio"},
        {"sched.kernels_created", count(s.kernels_created), "count"},
        {"sched.immediate_commit_ratio",
         ratio(count(s.immediate_commits), count(s.gpu_executions)), "ratio",
         kHigher},
        {"sched.executor_reuse_ratio",
         ratio(count(s.executor_reuses), count(s.gpu_executions)), "ratio",
         kHigher},
        {"sched.cold_starts", count(s.cold_starts), "count"},
        {"sched.prewarm_hits", count(s.prewarm_hits), "count", kHigher},
        {"sched.yield_conversions", count(s.yield_conversions), "count"},
        {"sched.migrations", count(s.migrations), "count"},
        {"sched.migrations_aborted", count(s.migrations_aborted), "count"},
        {"sched.sessions_rebalanced", count(o.sessions_rebalanced), "count"},
        {"sched.scale_outs", count(s.scale_outs), "count"},
        {"sched.scale_ins", count(s.scale_ins), "count"},
        {"cluster.gpu_hours_reserved", o.reservation_gpu_hours, "GPU-h",
         kHigher},
        {"cluster.gpu_hours_provisioned", o.gpu_hours_provisioned, "GPU-h"},
        {"cluster.gpu_hours_saved", o.gpu_hours_saved(), "GPU-h", kHigher},
        {"cluster.gpu_hours_committed", o.gpu_hours_committed, "GPU-h",
         kHigher},
        {"cluster.gpu_util",
         ratio(o.gpu_hours_committed, o.gpu_hours_provisioned), "ratio",
         kHigher},
        {"cluster.sr_peak", o.sr_peak, "ratio"},
        {"sim.events", count(o.events), "count"},
        {"sim.events_per_cell", ratio(count(o.events), cells), "count"},
        {"sim.ns_per_event", ratio(t.self_s * 1e9, count(o.events)), "ns"},
        {"net.sent", count(o.net.sent), "count"},
        {"net.messages_per_cell", ratio(count(o.net.sent), cells), "count"},
        {"net.delivered_ratio",
         ratio(count(o.net.delivered), count(o.net.sent)), "ratio", kHigher},
        {"net.dropped", count(o.net.dropped), "count"},
        {"raft.elections_failed", count(s.elections_failed), "count"},
        {"kernel.replica_failovers", count(s.replica_failovers), "count"},
        {"kernel.sync_p50_ms", o.sync_p50_ms, "ms"},
        {"kernel.sync_p99_ms", o.sync_p99_ms, "ms"},
        {"storage.read_p99_ms", o.read_p99_ms, "ms"},
        {"storage.write_p99_ms", o.write_p99_ms, "ms"},
        {"storage.bytes_written", count(o.bytes_written), "B"},
        {"billing.margin_pct", o.billing_margin_pct, "%", kHigher},
        {"trace.cells_per_s_untraced", untraced_rate, "cells/s", kHigher},
        {"trace.cells_per_s_traced", traced_rate, "cells/s", kHigher},
        {"trace.overhead_frac", ratio(untraced_rate, traced_rate) - 1.0,
         "fraction"},
    };
}

int
run(const Args& args)
{
    const e2e::Workload& workload = *e2e::find_workload(args.workload);
    std::printf("# e2ebench workload=%s seed=%llu seconds=%g trace=%d\n",
                workload.name.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);

    e2e::Tracer tracer;
    std::vector<std::string> errors;
    // What the input holds, counted once apart from any run, for the
    // checks. The first repetition warms caches and the allocator, so its
    // time is left out; its peak RSS, taken in a process that has held
    // nothing but that count, is the workload's memory.
    const e2e::Counts expected =
        e2e::count_input(workload, args.seed, e2e::Size::kFull);
    const Rep first = run_rep(workload, args.seed, expected, nullptr, 0,
                              errors);
    std::printf("# first repetition: run_s=%.4f peak_rss_mb=%.1f\n",
                first.run_s, first.peak_rss_mb);
    SetupSampler setup(workload, args.seed);
    std::vector<Rep> reps;
    const std::int64_t start = e2e::Tracer::now_ns();
    std::size_t traced_reps = 0;
    while (true) {
        const std::size_t untraced_reps = reps.size() - traced_reps;
        const bool enough = untraced_reps >= kMinReps &&
                            (!args.trace || traced_reps >= kMinReps);
        if (enough && seconds_since(start) >= args.seconds) {
            break;
        }
        // A traced run alternates: untraced, traced, untraced, ...
        const bool traced = args.trace && reps.size() % 2 == 1;
        reps.push_back(run_rep(workload, args.seed, expected,
                               traced ? &tracer : nullptr,
                               static_cast<std::int32_t>(reps.size()) + 1,
                               errors));
        traced_reps += traced ? 1 : 0;
        const Rep& rep = reps.back();
        std::printf("# repetition %zu%s: run_s=%.4f cells_per_s=%.1f\n",
                    reps.size(), traced ? " (traced)" : "", rep.run_s,
                    rep.cells_per_s());
        setup.sample(kSetupSamplesPerRep, kSetupSecondsPerRep);
    }
    if (setup.samples().size() < kSetupSamples) {
        setup.sample(kSetupSamples - setup.samples().size(), 0.0);
    }
    const std::vector<double>& setups = setup.samples();

    std::uint64_t attempted = first.outcome.cells;
    std::uint64_t failed = first.passed ? 0 : first.outcome.cells;
    for (const Rep& rep : reps) {
        attempted += rep.outcome.cells;
        failed += rep.passed ? 0 : rep.outcome.cells;
        if (!rep.outcome.identical(first.outcome)) {
            errors.push_back("simulated figures of repetition " +
                             std::to_string(&rep - reps.data() + 1) +
                             " differ from the first repetition");
        }
    }
    const e2e::Outcome& o = first.outcome;
    std::printf("# input: sessions=%llu cells=%llu; %zu repetitions "
                "(%zu traced), %zu setups\n",
                static_cast<unsigned long long>(o.sessions),
                static_cast<unsigned long long>(o.cells), reps.size(),
                traced_reps, setups.size());
    std::printf("# outcome: completed=%llu aborted=%llu "
                "interactivity_samples=%llu\n",
                static_cast<unsigned long long>(o.completed),
                static_cast<unsigned long long>(o.aborted),
                static_cast<unsigned long long>(o.interactivity_samples));
    for (const std::string& error : errors) {
        std::printf("# CHECK FAILED: %s\n", error.c_str());
    }
    std::printf("# checks: %s\n", errors.empty() ? "all passed" : "FAILED");

    const std::vector<e2e::Metric> metrics =
        args.trace ? per_layer_metrics(first, reps)
                   : end_to_end_metrics(first, reps, setups);
    for (const e2e::Metric& metric : metrics) {
        std::printf("%-30s %16.6g %-9s %s\n", metric.name.c_str(),
                    metric.value, metric.unit.c_str(),
                    e2e::direction(metric.better));
    }
    if (args.trace && !args.spans.empty()) {
        std::ofstream out(args.spans);
        tracer.write(out);
        if (!out) {
            std::fprintf(stderr, "nbos_e2e: cannot write spans to %s\n",
                         args.spans.c_str());
            return 1;
        }
    }
    std::printf("%s\n",
                e2e::result_json(errors.empty(), attempted, failed, metrics)
                    .c_str());
    return errors.empty() ? 0 : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    const Args args = parse_args(argc, argv);
    try {
        return run(args);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "nbos_e2e: %s\n", error.what());
        return 1;
    }
}
