/**
 * @file
 * Shared helpers for the figure-reproduction benches: canonical workloads,
 * policy runners, and table printers. Each bench binary regenerates the
 * rows/series of one paper table or figure (see DESIGN.md §3 for the
 * experiment index and EXPERIMENTS.md for paper-vs-measured results).
 */
#ifndef NBOS_BENCH_COMMON_HPP
#define NBOS_BENCH_COMMON_HPP

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/platform.hpp"
#include "core/results.hpp"
#include "core/runner.hpp"
#include "core/seed_sweep.hpp"
#include "sched/routing.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace nbos::bench {

/** Fixed seed so every bench is reproducible run-to-run. */
inline constexpr std::uint64_t kSeed = 2026;

/** Raw values of the NBOS_BENCH_* and NBOS_CHAOS_* knobs (null = unset).
 *  Captured as a struct so parsing is a pure, testable function of its
 *  inputs. */
struct BenchEnv
{
    const char* smoke = nullptr;         ///< NBOS_BENCH_SMOKE
    const char* profile = nullptr;       ///< NBOS_BENCH_PROFILE
    const char* seeds = nullptr;         ///< NBOS_BENCH_SEEDS
    const char* shards = nullptr;        ///< NBOS_BENCH_SHARDS
    const char* routing = nullptr;       ///< NBOS_BENCH_ROUTING
    const char* policies = nullptr;      ///< NBOS_BENCH_POLICIES
    const char* chaos_seed = nullptr;    ///< NBOS_CHAOS_SEED
    const char* chaos_rate = nullptr;    ///< NBOS_CHAOS_RATE
    const char* chaos_record = nullptr;  ///< NBOS_CHAOS_RECORD
    const char* chaos_replay = nullptr;  ///< NBOS_CHAOS_REPLAY

    static BenchEnv capture()
    {
        BenchEnv env;
        env.smoke = std::getenv("NBOS_BENCH_SMOKE");
        env.profile = std::getenv("NBOS_BENCH_PROFILE");
        env.seeds = std::getenv("NBOS_BENCH_SEEDS");
        env.shards = std::getenv("NBOS_BENCH_SHARDS");
        env.routing = std::getenv("NBOS_BENCH_ROUTING");
        env.policies = std::getenv("NBOS_BENCH_POLICIES");
        env.chaos_seed = std::getenv("NBOS_CHAOS_SEED");
        env.chaos_rate = std::getenv("NBOS_CHAOS_RATE");
        env.chaos_record = std::getenv("NBOS_CHAOS_RECORD");
        env.chaos_replay = std::getenv("NBOS_CHAOS_REPLAY");
        return env;
    }
};

/**
 * The validated bench option set: every NBOS_BENCH_* and NBOS_CHAOS_*
 * knob parsed once, in one place. Malformed values are a hard error with
 * the offending variable named — historically a bad NBOS_BENCH_SHARDS
 * silently fell back to 1, an unknown profile only warned and a bad
 * NBOS_CHAOS_SEED or NBOS_CHAOS_RATE was ignored, so a typo could pass as
 * a measurement of the default scenario.
 */
struct BenchOptions
{
    /** Shrunken workloads for CI (`ctest -L smoke`); first char '0' or
     *  unset/empty means off, anything else on. */
    bool smoke = false;
    /** workload::ProfileRegistry scenario override; empty keeps the
     *  canonical adobe workloads byte-identical. */
    std::string profile;
    /** Seed-sweep width, [1, 64]; 1 = single-seed figures only. */
    std::size_t seeds = 1;
    /** Fast-engine shard count, [1, 64]; 1 = the monolithic path. */
    std::int32_t shards = 1;
    /** Session -> shard routing policy for sharded runs. */
    sched::RoutingPolicyKind routing = sched::RoutingPolicyKind::kStaticHash;
    /** Raw engine filter (comma-separated names); empty = run all. */
    std::string policies;
    /** @name Chaos tier (bench/chaos_raft; see README "Chaos tier")
     *
     * Empty record / replay paths mean no schedule file.
     */
    ///@{
    /** Chaos plan seed (`NBOS_CHAOS_SEED`, a whole unsigned 64-bit
     *  integer); 0 derives it from the engine seed. */
    std::uint64_t chaos_seed = 0;
    /** Multiplier on every fault-class rate (`NBOS_CHAOS_RATE`, a finite
     *  number >= 0). */
    double chaos_rate = 1.0;
    /** `NBOS_CHAOS_RECORD`: run only the canonical chaos row and save its
     *  injected schedule here. */
    std::string chaos_record;
    /** `NBOS_CHAOS_REPLAY`: run only the canonical chaos row,
     *  re-executing the schedule saved here. */
    std::string chaos_replay;
    ///@}
};

/** Parse @p env into @p out. Pure (no process state, no exit).
 *  @return false and set @p error — naming the variable and the valid
 *          range — when any value is malformed. */
inline bool
parse_bench_options(const BenchEnv& env, BenchOptions& out,
                    std::string& error)
{
    const auto parse_count = [&error](const char* raw, const char* name,
                                      long& value) {
        char* end = nullptr;
        value = std::strtol(raw, &end, 10);
        if (end == raw || *end != '\0' || value < 1 || value > 64) {
            error = std::string(name) + "='" + raw +
                    "' is not an integer in [1, 64]";
            return false;
        }
        return true;
    };

    out = BenchOptions{};
    if (env.smoke != nullptr && env.smoke[0] != '\0') {
        out.smoke = env.smoke[0] != '0';
    }
    if (env.profile != nullptr && env.profile[0] != '\0') {
        if (!workload::ProfileRegistry::instance().contains(env.profile)) {
            error = std::string("NBOS_BENCH_PROFILE='") + env.profile +
                    "' is not a registered workload profile (known:";
            for (const std::string& name :
                 workload::ProfileRegistry::instance().names()) {
                error += " " + name;
            }
            error += ")";
            return false;
        }
        out.profile = env.profile;
    }
    if (env.seeds != nullptr && env.seeds[0] != '\0') {
        long value = 0;
        if (!parse_count(env.seeds, "NBOS_BENCH_SEEDS", value)) {
            return false;
        }
        out.seeds = static_cast<std::size_t>(value);
    }
    if (env.shards != nullptr && env.shards[0] != '\0') {
        long value = 0;
        if (!parse_count(env.shards, "NBOS_BENCH_SHARDS", value)) {
            return false;
        }
        out.shards = static_cast<std::int32_t>(value);
    }
    if (env.routing != nullptr && env.routing[0] != '\0') {
        try {
            out.routing = sched::routing_policy_from_string(env.routing);
        } catch (const std::invalid_argument&) {
            error = std::string("NBOS_BENCH_ROUTING='") + env.routing +
                    "' is not a routing policy (known: static_hash "
                    "least_loaded rebalance)";
            return false;
        }
    }
    if (env.policies != nullptr) {
        out.policies = env.policies;
    }
    // from_chars takes no space, '+' or trailing text, and no '-' for an
    // unsigned target, so " 7", "-3" and "12abc" are errors rather than a
    // trimmed, wrapped or cut number.
    const auto parse_all = [](const char* raw, auto& value) {
        const char* end = raw + std::strlen(raw);
        const auto [ptr, ec] = std::from_chars(raw, end, value);
        return ec == std::errc{} && ptr == end;
    };
    if (env.chaos_seed != nullptr && env.chaos_seed[0] != '\0' &&
        !parse_all(env.chaos_seed, out.chaos_seed)) {
        error = std::string("NBOS_CHAOS_SEED='") + env.chaos_seed +
                "' is not a whole unsigned 64-bit integer";
        return false;
    }
    if (env.chaos_rate != nullptr && env.chaos_rate[0] != '\0' &&
        (!parse_all(env.chaos_rate, out.chaos_rate) ||
         !std::isfinite(out.chaos_rate) || out.chaos_rate < 0.0)) {
        error = std::string("NBOS_CHAOS_RATE='") + env.chaos_rate +
                "' is not a finite number >= 0";
        return false;
    }
    if (env.chaos_record != nullptr) {
        out.chaos_record = env.chaos_record;
    }
    if (env.chaos_replay != nullptr) {
        out.chaos_replay = env.chaos_replay;
    }
    return true;
}

/**
 * The process's active bench options: the NBOS_BENCH_* and NBOS_CHAOS_*
 * variables parsed and validated together. A malformed value prints the
 * error and exits 2 (a typo must never pass as a measurement of the
 * default); the first call prints the active NBOS_BENCH_* options once,
 * to stderr so the hash-pinned stdout of every bench is unaffected.
 */
inline BenchOptions
options_or_exit()
{
    BenchOptions options;
    std::string error;
    if (!parse_bench_options(BenchEnv::capture(), options, error)) {
        std::fprintf(stderr, "[bench] %s\n", error.c_str());
        std::exit(2);
    }
    static bool announced = false;
    if (!announced) {
        announced = true;
        std::fprintf(
            stderr,
            "[bench] options: smoke=%d profile=%s seeds=%zu shards=%d "
            "routing=%s policies=%s\n",
            options.smoke ? 1 : 0,
            options.profile.empty() ? "(default)" : options.profile.c_str(),
            options.seeds, options.shards, sched::to_string(options.routing),
            options.policies.empty() ? "(all)" : options.policies.c_str());
    }
    return options;
}

/** Smoke mode (`NBOS_BENCH_SMOKE=1`, set by the `ctest -L smoke` entries)
 *  shrinks every canonical workload so all bench binaries together finish
 *  in well under a minute while still exercising their full code paths.
 *  Numbers printed under smoke mode are NOT the paper's figures. */
inline bool
smoke_mode()
{
    return options_or_exit().smoke;
}

/** Clamp self-built workload options when running under smoke mode. */
inline workload::GeneratorOptions
apply_smoke(workload::GeneratorOptions options)
{
    if (smoke_mode()) {
        options.makespan = std::min(options.makespan, 1 * sim::kHour);
        if (options.max_sessions < 0 || options.max_sessions > 10) {
            options.max_sessions = 10;
        }
    }
    return options;
}

/** Workload profile override (`NBOS_BENCH_PROFILE=flash_crowd`): when set
 *  to a workload::ProfileRegistry name, excerpt_trace / summer_trace
 *  regenerate their canonical workloads through that profile (same seed,
 *  same makespan/session shape), so every bench row can be rerun under a
 *  different scenario — the profile smoke tier in CI sweeps two of them.
 *  Unset or empty keeps the historical adobe workloads byte-identical
 *  (all baseline.json hashes are pinned with the knob unset); unknown
 *  names are a hard error (options_or_exit) so a typo cannot silently
 *  pass as a measurement of another scenario. */
inline std::string
bench_profile()
{
    return options_or_exit().profile;
}

/** Generate (@p profile, @p options) at the bench seed and tag the trace
 *  `<profile><suffix>` so figure tables name the scenario under study. */
inline workload::Trace
profile_trace(const std::string& profile,
              const workload::GeneratorOptions& options,
              const std::string& suffix)
{
    const auto scenario =
        workload::ProfileRegistry::instance().create(profile);
    workload::Trace trace = scenario->generate(kSeed, options);
    trace.name = profile + suffix;
    return trace;
}

/** The 17.5-hour AdobeTrace excerpt used by the prototype evaluation
 *  (regenerated through NBOS_BENCH_PROFILE when set). */
inline workload::Trace
excerpt_trace()
{
    const std::string profile = bench_profile();
    if (smoke_mode()) {
        workload::GeneratorOptions options;
        options.makespan = 90 * sim::kMinute;
        options.max_sessions = 12;
        options.sessions_survive_trace = true;
        if (!profile.empty()) {
            return profile_trace(profile, options, "-excerpt-smoke");
        }
        workload::WorkloadGenerator generator{sim::Rng(kSeed)};
        workload::Trace trace =
            generator.generate(workload::TraceProfile::adobe(), options);
        trace.name = "adobe-excerpt-smoke";
        return trace;
    }
    if (!profile.empty()) {
        workload::GeneratorOptions options;
        options.makespan = 17 * sim::kHour + 30 * sim::kMinute;
        options.max_sessions = 90;
        options.sessions_survive_trace = true;
        return profile_trace(profile, options, "-excerpt");
    }
    workload::WorkloadGenerator generator{sim::Rng(kSeed)};
    return generator.adobe_excerpt_17_5h();
}

/** The 90-day summer trace used by the simulation studies (regenerated
 *  through NBOS_BENCH_PROFILE when set; profile runs keep the profile's
 *  own calibration rather than the summer re-parameterization, so
 *  scenarios compare like against like across benches). */
inline workload::Trace
summer_trace()
{
    const std::string profile = bench_profile();
    if (smoke_mode()) {
        workload::GeneratorOptions options;
        options.makespan = 7 * sim::kDay;
        options.max_sessions = 40;
        if (!profile.empty()) {
            return profile_trace(profile, options, "-summer-smoke");
        }
        workload::WorkloadGenerator generator{sim::Rng(kSeed)};
        workload::Trace trace =
            generator.generate(workload::TraceProfile::adobe(), options);
        trace.name = "adobe-summer-smoke";
        return trace;
    }
    if (!profile.empty()) {
        workload::GeneratorOptions options;
        options.makespan = 90 * sim::kDay;
        return profile_trace(profile, options, "-summer");
    }
    workload::WorkloadGenerator generator{sim::Rng(kSeed)};
    return generator.adobe_summer_90d();
}

/** Seed count for statistical sweeps (`NBOS_BENCH_SEEDS=N`): when N > 1,
 *  run_policies / run_specs_or_exit fan every experiment out over N
 *  consecutive seeds and print a `mean ± ci95` summary table in addition
 *  to the usual single-seed figures (which keep using the first seed, so
 *  they stay byte-identical). Unset or empty means 1; malformed or
 *  out-of-range values are a hard error (options_or_exit). */
inline std::size_t
bench_seeds()
{
    return options_or_exit().seeds;
}

/** Shard count for the fast analytic engine (`NBOS_BENCH_SHARDS=N`):
 *  run_policies applies it to every spec's scheduler config, so any
 *  bench row using a fast engine partitions its sessions over N
 *  analytic shards (one thread each). Discrete-event engines ignore it
 *  only in the sense that their sharding is already config-driven; the
 *  value is set uniformly either way. Unset or empty means 1 (the
 *  monolithic fast path, byte-identical to the pre-shard outputs);
 *  malformed or out-of-range values are a hard error (options_or_exit). */
inline std::int32_t
bench_shards()
{
    return options_or_exit().shards;
}

/** Routing policy for sharded runs (`NBOS_BENCH_ROUTING=least_loaded`):
 *  run_policies applies it to every spec's scheduler config alongside
 *  NBOS_BENCH_SHARDS, so any bench row can be rerun under a different
 *  session -> shard policy (routing smoke tier in CI). Unset or empty
 *  means static_hash — the pre-routing hash, byte-identical outputs;
 *  unknown names are a hard error (options_or_exit) so a typo cannot
 *  silently pass as a measurement of the default. */
inline sched::RoutingPolicyKind
bench_routing()
{
    return options_or_exit().routing;
}

/** Reset the kernel's peak-RSS mark (VmHWM) to the current RSS, so the
 *  next peak_rss_mb() covers only what runs after this call. */
inline void
reset_peak_rss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak RSS (VmHWM) of this process in MB since it started or since the
 *  last reset_peak_rss(); 0 when /proc is unavailable. */
inline double
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

/** Pure core of the NBOS_BENCH_POLICIES filter (testable without touching
 *  the environment): true when @p filter is null/empty or one of its
 *  comma-separated tokens equals the engine name or the policy name. */
inline bool
policy_filter_allows(const char* filter, const std::string& engine,
                     const std::string& policy_name = {})
{
    if (filter == nullptr || filter[0] == '\0') {
        return true;
    }
    std::istringstream stream{std::string(filter)};
    std::string token;
    while (std::getline(stream, token, ',')) {
        token.erase(0, token.find_first_not_of(" \t"));
        const std::size_t last = token.find_last_not_of(" \t");
        token.erase(last == std::string::npos ? 0 : last + 1);
        if (token == engine ||
            (!policy_name.empty() && token == policy_name)) {
            return true;
        }
    }
    return false;
}

/** Engine filter (`NBOS_BENCH_POLICIES=notebookos,batch`): when set, the
 *  run_policy/run_policies helpers skip engines whose registry name and
 *  policy name are both absent from the comma-separated list, so a bench
 *  binary reruns only the engines under study. */
inline bool
engine_enabled(const std::string& engine,
               const std::string& policy_name = {})
{
    return policy_filter_allows(options_or_exit().policies.c_str(), engine,
                                policy_name);
}

/** One canonical-settings policy run for run_policies(). Field order
 *  matches test::EngineRun (policy, seed, fast) so positional
 *  initializers mean the same thing in both; call sites setting `fast`
 *  use designated initializers. */
struct PolicyRun
{
    core::Policy policy = core::Policy::kNotebookOS;
    std::uint64_t seed = kSeed;
    bool fast = false;
};

/** One run_policies() row: the single-seed results the figure tables
 *  print, plus an explicit skip marker. A row filtered out by
 *  NBOS_BENCH_POLICIES keeps its identifying fields (policy, trace) but
 *  holds no samples — the flag is what distinguishes it from a real
 *  all-zero run. */
struct PolicyResult : core::ExperimentResults
{
    bool skipped = false;
};

inline void banner(const std::string& title);

/** Print one sweep aggregate's per-metric `mean ± ci95` block. */
inline void
print_sweep_aggregate(const core::SweepAggregate& aggregate)
{
    std::printf("# engine=%s seeds=%llu..%llu n=%zu\n",
                aggregate.label.c_str(),
                static_cast<unsigned long long>(aggregate.seeds.front()),
                static_cast<unsigned long long>(aggregate.seeds.back()),
                aggregate.seeds.size());
    std::printf("%-24s %14s %12s %12s %12s %12s\n", "metric", "mean",
                "ci95", "stddev", "min", "max");
    for (const core::MetricSummary& metric : aggregate.metrics) {
        const metrics::Summary& s = metric.summary;
        std::printf("%-24s %14.4f %12.4f %12.4f %12.4f %12.4f\n",
                    metric.name.c_str(), s.mean, s.ci95, s.stddev, s.min,
                    s.max);
    }
}

/** Print the statistical summary of a multi-seed sweep (one block per
 *  swept experiment). Emitted by run_policies / run_specs_or_exit when
 *  NBOS_BENCH_SEEDS > 1, ahead of the usual single-seed figures. */
inline void
print_sweep_summary(const std::vector<core::SweepOutcome>& sweeps,
                    std::size_t seeds)
{
    if (sweeps.empty()) {
        return;
    }
    banner("Seed sweep: mean +/- ci95 over " + std::to_string(seeds) +
           " seeds (NBOS_BENCH_SEEDS)");
    for (const core::SweepOutcome& sweep : sweeps) {
        print_sweep_aggregate(sweep.aggregate);
    }
}

/** Run every spec through a seed sweep (seeds first..first+n-1 derived
 *  from each spec's own seed) or die. @return the base-seed outcome per
 *  spec, in spec order — identical to what a single-seed run returns. */
inline std::vector<core::ExperimentOutcome>
run_sweeps_or_exit(const std::vector<core::ExperimentSpec>& specs,
                   std::size_t seeds)
{
    std::vector<core::SweepSpec> sweeps;
    sweeps.reserve(specs.size());
    for (const core::ExperimentSpec& spec : specs) {
        core::SweepSpec sweep;
        sweep.base = spec;
        sweep.seeds = core::seed_range(spec.seed, seeds);
        sweeps.push_back(std::move(sweep));
    }
    auto sweep_outcomes = core::SeedSweep().run(sweeps);
    for (const core::SweepOutcome& outcome : sweep_outcomes) {
        if (!outcome.ok) {
            const std::string& label = sweeps[outcome.index].base.label;
            std::fprintf(stderr, "[bench] sweep %s failed: %s\n",
                         label.empty()
                             ? sweeps[outcome.index].base.engine.c_str()
                             : label.c_str(),
                         outcome.error.c_str());
            std::exit(1);
        }
    }
    print_sweep_summary(sweep_outcomes, seeds);
    std::vector<core::ExperimentOutcome> outcomes(specs.size());
    for (std::size_t j = 0; j < specs.size(); ++j) {
        outcomes[j].index = j;
        outcomes[j].engine = specs[j].engine;
        outcomes[j].label = specs[j].label.empty() ? specs[j].engine
                                                   : specs[j].label;
        outcomes[j].ok = true;
        // The first sweep seed is the spec's own seed, so this is exactly
        // the single-seed result the figure tables always printed.
        outcomes[j].results =
            std::move(sweep_outcomes[j].per_seed.front());
    }
    return outcomes;
}

/** Run the requested policies concurrently on the ExperimentRunner.
 *  Results come back in request order, so tables printed from them are
 *  byte-identical to the pre-runner serial runs. Engines disabled by
 *  NBOS_BENCH_POLICIES are not executed: their rows carry
 *  PolicyResult::skipped, a note goes to stderr, and the skipped names
 *  are listed on stdout so tables with zero rows are not mistaken for
 *  real measurements. With NBOS_BENCH_SEEDS=N (N > 1) every enabled
 *  policy is swept over N seeds and a mean ± ci95 summary is printed
 *  first. */
inline std::vector<PolicyResult>
run_policies(const workload::Trace& trace,
             const std::vector<PolicyRun>& runs)
{
    std::vector<PolicyResult> results(runs.size());
    std::vector<core::ExperimentSpec> specs;
    std::vector<std::size_t> positions;
    std::vector<std::string> skipped;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const char* engine =
            core::engine_name(runs[i].policy, runs[i].fast);
        results[i].policy = runs[i].policy;
        results[i].trace_name = trace.name;
        results[i].makespan = trace.makespan;
        if (!engine_enabled(engine, core::to_string(runs[i].policy))) {
            results[i].skipped = true;
            skipped.emplace_back(engine);
            std::fprintf(stderr,
                         "[bench] skipping engine %s (NBOS_BENCH_POLICIES)\n",
                         engine);
            continue;
        }
        core::ExperimentSpec spec;
        spec.engine = engine;
        spec.trace = &trace;
        spec.config = core::PlatformConfig::prototype_defaults();
        spec.config.scheduler.shards = bench_shards();
        spec.config.scheduler.routing = bench_routing();
        spec.seed = runs[i].seed;
        specs.push_back(std::move(spec));
        positions.push_back(i);
    }
    const std::size_t seeds = bench_seeds();
    auto outcomes = seeds > 1 ? run_sweeps_or_exit(specs, seeds)
                              : core::ExperimentRunner().run(specs);
    for (std::size_t j = 0; j < outcomes.size(); ++j) {
        if (!outcomes[j].ok) {
            std::fprintf(stderr, "[bench] engine %s failed: %s\n",
                         outcomes[j].engine.c_str(),
                         outcomes[j].error.c_str());
            std::exit(1);
        }
        static_cast<core::ExperimentResults&>(results[positions[j]]) =
            std::move(outcomes[j].results);
    }
    if (!skipped.empty()) {
        std::printf("# skipped engines (NBOS_BENCH_POLICIES):");
        for (const std::string& name : skipped) {
            std::printf(" %s", name.c_str());
        }
        std::printf("\n");
    }
    return results;
}

/** Run one policy over a trace with canonical settings. */
inline core::ExperimentResults
run_policy(core::Policy policy, const workload::Trace& trace,
           bool fast_mode = false)
{
    auto results =
        run_policies(trace, {PolicyRun{policy, kSeed, fast_mode}});
    return std::move(static_cast<core::ExperimentResults&>(
        results.front()));
}

/** Print the sweep's outcomes or die: shared guard for benches that
 *  drive the ExperimentRunner directly with custom configs. With
 *  NBOS_BENCH_SEEDS=N (N > 1) every spec is additionally swept over N
 *  seeds (mean ± ci95 summary printed first); the returned outcomes are
 *  always the base-seed runs. */
inline std::vector<core::ExperimentOutcome>
run_specs_or_exit(const std::vector<core::ExperimentSpec>& specs)
{
    const std::size_t seeds = bench_seeds();
    if (seeds > 1) {
        return run_sweeps_or_exit(specs, seeds);
    }
    auto outcomes = core::ExperimentRunner().run(specs);
    for (const core::ExperimentOutcome& outcome : outcomes) {
        if (!outcome.ok) {
            std::fprintf(stderr, "[bench] %s failed: %s\n",
                         outcome.label.c_str(), outcome.error.c_str());
            std::exit(1);
        }
    }
    return outcomes;
}

/** Print a header banner. */
inline void
banner(const std::string& title)
{
    std::printf("\n================================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("================================================================\n");
}

/** Print percentile rows of a distribution. */
inline void
print_percentiles(const std::string& label,
                  const metrics::Percentiles& dist,
                  const std::string& unit)
{
    std::printf("%-24s n=%-7zu", label.c_str(), dist.count());
    for (const double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
        std::printf(" p%-2.0f=%-10.3f", p, dist.percentile(p));
    }
    std::printf(" max=%-10.3f [%s]\n", dist.max(), unit.c_str());
}

/** Print a CDF as value/fraction rows (gnuplot-ready). */
inline void
print_cdf(const std::string& label, const metrics::Percentiles& dist,
          std::size_t points = 20)
{
    std::printf("# CDF %s (value fraction)\n", label.c_str());
    for (const auto& point : dist.cdf(points)) {
        std::printf("%-14.4f %.4f\n", point.value, point.fraction);
    }
}

/** Print a timeline series resampled to @p buckets rows. */
inline void
print_series(const std::string& label, const metrics::TimeSeries& series,
             sim::Time t0, sim::Time t1, std::size_t buckets,
             const std::string& time_unit = "hour")
{
    const double divisor = time_unit == "day"
                               ? static_cast<double>(sim::kDay)
                               : static_cast<double>(sim::kHour);
    std::printf("# SERIES %s (time[%s] value)\n", label.c_str(),
                time_unit.c_str());
    for (const auto& sample : series.resample(t0, t1, buckets)) {
        std::printf("%-10.3f %.3f\n",
                    static_cast<double>(sample.time) / divisor,
                    sample.value);
    }
}

}  // namespace nbos::bench

#endif  // NBOS_BENCH_COMMON_HPP
