/**
 * @file
 * What one measured repetition yields, and how the benchmark prints it.
 *
 * An Outcome holds every simulated (deterministic) figure of a run: the
 * same workload and seed must give a bit-identical Outcome on every
 * repetition, traced or not. Host timings are kept apart, in main.cpp.
 */
#ifndef NBOS_E2EBENCH_REPORT_HPP
#define NBOS_E2EBENCH_REPORT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine_api.hpp"
#include "workloads.hpp"

namespace e2e {

/** The simulated figures of one run. */
struct Outcome
{
    std::uint64_t sessions = 0;
    std::uint64_t cells = 0;
    std::uint64_t completed = 0;
    std::uint64_t aborted = 0;
    std::uint64_t interactivity_samples = 0;
    double interactivity_p50_s = 0.0;
    double interactivity_p99_s = 0.0;
    double reservation_gpu_hours = 0.0;
    double gpu_hours_provisioned = 0.0;
    double gpu_hours_committed = 0.0;
    double sr_peak = 0.0;
    nbos::sched::SchedulerStats stats{};
    nbos::net::NetworkStats net{};
    std::uint64_t events = 0;
    std::uint64_t sessions_rebalanced = 0;
    double sync_p50_ms = 0.0;
    double sync_p99_ms = 0.0;
    double read_p99_ms = 0.0;
    double write_p99_ms = 0.0;
    std::uint64_t bytes_written = 0;
    double billing_margin_pct = 0.0;

    double gpu_hours_saved() const
    {
        return reservation_gpu_hours - gpu_hours_provisioned;
    }

    /** Bitwise equality of every field (doubles compare by bits). */
    bool identical(const Outcome& other) const;
};

/** Extract the simulated figures of @p run over @p input. */
Outcome make_outcome(const nbos::core::RunResponse& run,
                     const InputSummary& input);

/** Which way a metric improves. */
enum class Better
{
    kLower,
    kHigher,
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    Better better = Better::kLower;
};

/** "lower is better" or "higher is better", for the human-readable lines. */
const char* direction(Better better);

/** Median of @p values (mean of the middle pair); 0 when empty. */
double median(std::vector<double> values);

/** The contract's result line: one JSON object with exactly the keys
 *  correct, attempted, failed and metrics. Non-finite values print 0. */
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace e2e

#endif  // NBOS_E2EBENCH_REPORT_HPP
