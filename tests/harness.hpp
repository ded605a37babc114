/**
 * @file
 * Shared fixtures for the test suites: tiny trace builders, seeded RNG
 * helpers, canonical platform configs/runners, and deep result-equality
 * assertions used by the determinism suite.
 */
#ifndef NBOS_TESTS_HARNESS_HPP
#define NBOS_TESTS_HARNESS_HPP

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/engine_api.hpp"
#include "core/platform.hpp"
#include "core/results.hpp"
#include "core/runner.hpp"
#include "sim/rng.hpp"
#include "workload/generator.hpp"

namespace nbos::test {

/** Canonical seed for suites that only need "some" reproducible stream. */
inline constexpr std::uint64_t kTestSeed = 21;

/** A seeded RNG stream; n distinguishes independent streams in one test. */
inline sim::Rng
seeded_rng(std::uint64_t n = 0)
{
    return sim::Rng(kTestSeed + 0x9e3779b97f4a7c15ULL * n);
}

/** @name Property-based testing helpers
 *  Seeded random-input generators for the `props` tier: each property
 *  runs over several independently seeded inputs, and failures name the
 *  seed so a shrunk reproduction is one function call away.
 */
///@{

/** @p n uniform doubles in [lo, hi) drawn from @p rng. */
inline std::vector<double>
random_doubles(sim::Rng& rng, std::size_t n, double lo, double hi)
{
    std::vector<double> values;
    values.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        values.push_back(rng.uniform(lo, hi));
    }
    return values;
}

/** A deterministic Fisher-Yates permutation of @p values. */
inline std::vector<double>
shuffled(std::vector<double> values, sim::Rng& rng)
{
    for (std::size_t i = values.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
        std::swap(values[i - 1], values[j]);
    }
    return values;
}

/** Run @p property against @p iterations independent seeded RNG streams;
 *  assertion failures are scoped to the stream index that produced the
 *  counterexample. */
template <typename Property>
inline void
check_property(std::size_t iterations, Property&& property)
{
    for (std::size_t i = 0; i < iterations; ++i) {
        SCOPED_TRACE("property input stream " + std::to_string(i));
        sim::Rng rng = seeded_rng(i + 1);
        property(rng, i);
    }
}

///@}

/** Whether @p tasks is strictly in (submit, session, seq) order — the
 *  order the windowed driver creates a run's outcome rows in when each
 *  session lists its cells in seq order — so no cell has two rows. */
inline bool
in_submit_order(const std::vector<core::TaskOutcome>& tasks)
{
    return std::adjacent_find(
               tasks.begin(), tasks.end(),
               [](const core::TaskOutcome& a, const core::TaskOutcome& b) {
                   return std::tie(b.submit, b.session, b.seq) <=
                          std::tie(a.submit, a.session, a.seq);
               }) == tasks.end();
}

/** A small generated AdobeTrace-profile workload that runs in well under a
 *  second on every engine. Shared by the core/sim/integration suites. */
inline workload::Trace
tiny_trace(int sessions = 8, sim::Time makespan = 3 * sim::kHour,
           std::uint64_t seed = kTestSeed)
{
    workload::WorkloadGenerator generator{sim::Rng(seed)};
    workload::GeneratorOptions options;
    options.makespan = makespan;
    options.max_sessions = sessions;
    options.sessions_survive_trace = true;
    return generator.generate(workload::TraceProfile::adobe(), options);
}

/** Prototype-default platform config with policy/seed/fast-mode applied. */
inline core::PlatformConfig
platform_config(core::Policy policy, std::uint64_t seed = 17,
                bool fast = false)
{
    core::PlatformConfig config = core::PlatformConfig::prototype_defaults();
    config.policy = policy;
    config.fast_mode = fast;
    config.seed = seed;
    return config;
}

/** Run @p trace under @p config through core::run (the engine is
 *  derived from config.policy and config.fast_mode). */
inline core::ExperimentResults
run_config(const core::PlatformConfig& config, const workload::Trace& trace)
{
    core::RunRequest request;
    request.config = config;
    request.trace = &trace;
    return core::run(request).results;
}

/** Run one policy engine over a trace with canonical settings. */
inline core::ExperimentResults
run_policy(const workload::Trace& trace, core::Policy policy,
           std::uint64_t seed = 17, bool fast = false)
{
    return run_config(platform_config(policy, seed, fast), trace);
}

/** One (policy, seed, fast) run for run_concurrent(). */
struct EngineRun
{
    core::Policy policy = core::Policy::kNotebookOS;
    std::uint64_t seed = 17;
    bool fast = false;
};

/** Run several experiments over one trace concurrently via the
 *  ExperimentRunner; results come back in request order. The heavy
 *  multi-policy fixtures use this so suite wall time tracks the slowest
 *  engine rather than the sum. @p base carries custom scheduler or
 *  baseline knobs shared by every run. */
inline std::vector<core::ExperimentResults>
run_concurrent(const workload::Trace& trace,
               const std::vector<EngineRun>& runs,
               const core::PlatformConfig& base =
                   core::PlatformConfig::prototype_defaults())
{
    std::vector<core::ExperimentSpec> specs;
    specs.reserve(runs.size());
    for (const EngineRun& run : runs) {
        core::ExperimentSpec spec;
        spec.engine = core::engine_name(run.policy, run.fast);
        spec.trace = &trace;
        spec.config = base;
        spec.seed = run.seed;
        specs.push_back(std::move(spec));
    }
    auto outcomes = core::ExperimentRunner().run(specs);
    std::vector<core::ExperimentResults> results;
    results.reserve(outcomes.size());
    for (core::ExperimentOutcome& outcome : outcomes) {
        EXPECT_TRUE(outcome.ok) << outcome.engine << ": " << outcome.error;
        results.push_back(std::move(outcome.results));
    }
    return results;
}

/** Assert two timeline series are bit-identical. */
inline void
expect_series_identical(const metrics::TimeSeries& a,
                        const metrics::TimeSeries& b, const char* label)
{
    ASSERT_EQ(a.size(), b.size()) << label;
    const auto& sa = a.samples();
    const auto& sb = b.samples();
    for (std::size_t i = 0; i < sa.size(); ++i) {
        ASSERT_EQ(sa[i].time, sb[i].time) << label << " sample " << i;
        // Bit-identical, not approximately equal: the whole point.
        ASSERT_EQ(sa[i].value, sb[i].value) << label << " sample " << i;
    }
}

/** Assert two latency distributions hold bit-identical samples. */
inline void
expect_percentiles_identical(const metrics::Percentiles& a,
                             const metrics::Percentiles& b,
                             const char* label)
{
    ASSERT_EQ(a.count(), b.count()) << label;
    const auto va = a.sorted();
    const auto vb = b.sorted();
    for (std::size_t i = 0; i < va.size(); ++i) {
        ASSERT_EQ(va[i], vb[i]) << label << " sample " << i;
    }
}

/** Assert two experiment runs produced bit-identical results::* output.
 *  This is the property every optimization PR must preserve. */
inline void
expect_results_identical(const core::ExperimentResults& a,
                         const core::ExperimentResults& b)
{
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.trace_name, b.trace_name);
    EXPECT_EQ(a.makespan, b.makespan);

    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (std::size_t i = 0; i < a.tasks.size(); ++i) {
        const core::TaskOutcome& ta = a.tasks[i];
        const core::TaskOutcome& tb = b.tasks[i];
        ASSERT_EQ(ta.session, tb.session) << "task " << i;
        ASSERT_EQ(ta.seq, tb.seq) << "task " << i;
        ASSERT_EQ(ta.is_gpu, tb.is_gpu) << "task " << i;
        ASSERT_EQ(ta.gpus, tb.gpus) << "task " << i;
        ASSERT_EQ(ta.submit, tb.submit) << "task " << i;
        ASSERT_EQ(ta.exec_start, tb.exec_start) << "task " << i;
        ASSERT_EQ(ta.exec_end, tb.exec_end) << "task " << i;
        ASSERT_EQ(ta.reply, tb.reply) << "task " << i;
        ASSERT_EQ(ta.migrated, tb.migrated) << "task " << i;
        ASSERT_EQ(ta.aborted, tb.aborted) << "task " << i;
    }

    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        ASSERT_EQ(a.events[i].kind, b.events[i].kind) << "event " << i;
        ASSERT_EQ(a.events[i].time, b.events[i].time) << "event " << i;
    }

    expect_series_identical(a.provisioned_gpus, b.provisioned_gpus,
                            "provisioned_gpus");
    expect_series_identical(a.committed_gpus, b.committed_gpus,
                            "committed_gpus");
    expect_series_identical(a.subscription_ratio, b.subscription_ratio,
                            "subscription_ratio");
    expect_percentiles_identical(a.sync_ms, b.sync_ms, "sync_ms");
    expect_percentiles_identical(a.read_ms, b.read_ms, "read_ms");
    expect_percentiles_identical(a.write_ms, b.write_ms, "write_ms");

    EXPECT_EQ(a.store_bytes_written, b.store_bytes_written);
    EXPECT_TRUE(a.net_stats == b.net_stats)
        << "net_stats: sent " << a.net_stats.sent << "/" << b.net_stats.sent
        << " delivered " << a.net_stats.delivered << "/"
        << b.net_stats.delivered << " dropped " << a.net_stats.dropped << "/"
        << b.net_stats.dropped << " dropped_chaos "
        << a.net_stats.dropped_chaos << "/" << b.net_stats.dropped_chaos;
    EXPECT_EQ(a.sched_stats.kernels_created, b.sched_stats.kernels_created);
    EXPECT_EQ(a.sched_stats.migrations, b.sched_stats.migrations);
    EXPECT_EQ(a.sched_stats.scale_outs, b.sched_stats.scale_outs);
    EXPECT_EQ(a.sched_stats.scale_ins, b.sched_stats.scale_ins);
    EXPECT_EQ(a.sched_stats.gpu_executions, b.sched_stats.gpu_executions);
    EXPECT_EQ(a.sched_stats.executions_completed,
              b.sched_stats.executions_completed);
}

}  // namespace nbos::test

#endif  // NBOS_TESTS_HARNESS_HPP
