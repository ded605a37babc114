#include "report.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>

#include "billing/billing.hpp"

namespace e2e {

using namespace nbos;

namespace {

bool
same_bits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/** §5.5.1 profit margin, priced as in the fig12 bench: idle replicas
 *  (3 per active session, minus the ones executing) bill at the standby
 *  rate, executing ones at their GPU share. */
double
billing_margin_pct(const core::ExperimentResults& results,
                   const InputSummary& input)
{
    const sim::Time step = 10 * sim::kMinute;
    const metrics::TimeSeries sessions =
        core::series_from_deltas(input.session_deltas);
    const metrics::TimeSeries trainings = results.active_trainings_series();
    metrics::TimeSeries standby;
    for (sim::Time t = 0; t <= input.makespan; t += step) {
        standby.record(t, std::max(0.0, 3.0 * sessions.value_at(t) -
                                            trainings.value_at(t)));
    }
    return billing::compute_billing(billing::BillingConfig{},
                                    results.provisioned_gpus, standby,
                                    results.committed_gpus,
                                    /*standby_rate=*/true, input.makespan,
                                    step)
        .final_margin_pct();
}

}  // namespace

bool
Outcome::identical(const Outcome& o) const
{
    return sessions == o.sessions && cells == o.cells &&
           completed == o.completed && aborted == o.aborted &&
           interactivity_samples == o.interactivity_samples &&
           same_bits(interactivity_p50_s, o.interactivity_p50_s) &&
           same_bits(interactivity_p99_s, o.interactivity_p99_s) &&
           same_bits(reservation_gpu_hours, o.reservation_gpu_hours) &&
           same_bits(gpu_hours_provisioned, o.gpu_hours_provisioned) &&
           same_bits(gpu_hours_committed, o.gpu_hours_committed) &&
           same_bits(sr_peak, o.sr_peak) && stats == o.stats &&
           net == o.net && events == o.events &&
           sessions_rebalanced == o.sessions_rebalanced &&
           same_bits(sync_p50_ms, o.sync_p50_ms) &&
           same_bits(sync_p99_ms, o.sync_p99_ms) &&
           same_bits(read_p99_ms, o.read_p99_ms) &&
           same_bits(write_p99_ms, o.write_p99_ms) &&
           bytes_written == o.bytes_written &&
           same_bits(billing_margin_pct, o.billing_margin_pct);
}

Outcome
make_outcome(const core::RunResponse& run, const InputSummary& input)
{
    const core::ExperimentResults& results = run.results;
    Outcome out;
    out.sessions = input.sessions;
    out.cells = input.cells;
    out.aborted = results.aborted_count();
    out.completed = results.tasks.size() - out.aborted;
    const metrics::Percentiles delays =
        results.interactivity_delays_seconds();
    out.interactivity_samples = delays.count();
    out.interactivity_p50_s = delays.percentile(50.0);
    out.interactivity_p99_s = delays.percentile(99.0);
    out.reservation_gpu_hours = input.reservation_gpu_hours;
    out.gpu_hours_provisioned = results.gpu_hours_provisioned();
    out.gpu_hours_committed = results.gpu_hours_committed();
    out.sr_peak = results.subscription_ratio.empty()
                      ? 0.0
                      : results.subscription_ratio.max_value();
    out.stats = results.sched_stats;
    out.net = results.net_stats;
    out.events = run.events_executed;
    out.sessions_rebalanced = run.sessions_rebalanced;
    out.sync_p50_ms = results.sync_ms.percentile(50.0);
    out.sync_p99_ms = results.sync_ms.percentile(99.0);
    out.read_p99_ms = results.read_ms.percentile(99.0);
    out.write_p99_ms = results.write_ms.percentile(99.0);
    out.bytes_written = results.store_bytes_written;
    out.billing_margin_pct = billing_margin_pct(results, input);
    return out;
}

const char*
direction(Better better)
{
    return better == Better::kHigher ? "higher is better" : "lower is better";
}

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

std::string
result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric>& metrics)
{
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double value =
            std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        char digits[32];
        const auto end =
            std::to_chars(digits, digits + sizeof digits, value).ptr;
        out += (i == 0 ? "\"" : ", \"") + metrics[i].name +
               "\": {\"value\": " + std::string(digits, end) +
               ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

}  // namespace e2e
