#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>

namespace nbos::workload {

namespace {

constexpr double kMaxDurationSeconds = 6.0 * 3600.0;  // clamp pathological tails

/** GPU request options matching the paper's 1-8 GPU server shapes. */
constexpr std::int32_t kGpuOptions[] = {1, 2, 4, 8};

}  // namespace

TraceProfile
TraceProfile::adobe()
{
    TraceProfile profile;
    profile.name = "adobe";
    // p50 duration 120 s; sigma fit to the p90/p99 spread in §2.3.1.
    profile.duration_mu = std::log(120.0);
    profile.duration_sigma = 1.7;
    profile.duration_floor_s = 15.0;  // trace sample granularity
    // IAT = max(240 s floor + lognormal, duration): the lognormal location
    // is fitted so the *joint* median lands at the published 300 s / p75
    // 480 s (§2.3.2) after the serial-execution clamp.
    profile.iat_mu = std::log(17.0);
    profile.iat_sigma = 2.0;
    profile.iat_floor_s = 240.0;
    profile.serial_tasks = true;
    profile.session_arrival_per_hour = 5.2;
    profile.session_lifetime_mu = std::log(1.4 * 86400.0);
    profile.session_lifetime_sigma = 1.0;
    profile.long_gap_probability = 0.12;
    profile.long_gap_mu = std::log(2.0 * 3600.0);
    profile.long_gap_sigma = 1.0;
    return profile;
}

TraceProfile
TraceProfile::philly()
{
    TraceProfile profile;
    profile.name = "philly";
    // p50 duration 621 s (§2.3.1); batch jobs, long tails.
    profile.duration_mu = std::log(621.0);
    profile.duration_sigma = 1.9;
    profile.duration_floor_s = 1.0;
    // p50 IAT 44 s (§2.3.2); batch schedulers submit back-to-back.
    profile.iat_mu = std::log(44.0);
    profile.iat_sigma = 1.4;
    profile.iat_floor_s = 0.0;
    profile.session_arrival_per_hour = 5.2;
    profile.session_lifetime_mu = std::log(0.8 * 86400.0);
    profile.session_lifetime_sigma = 1.0;
    profile.long_gap_probability = 0.0;
    profile.serial_tasks = false;
    return profile;
}

TraceProfile
TraceProfile::alibaba()
{
    TraceProfile profile;
    profile.name = "alibaba";
    // p50 duration 957 s (§2.3.1).
    profile.duration_mu = std::log(957.0);
    profile.duration_sigma = 1.8;
    profile.duration_floor_s = 1.0;
    // p50 IAT 38 s (§2.3.2).
    profile.iat_mu = std::log(38.0);
    profile.iat_sigma = 1.3;
    profile.iat_floor_s = 0.0;
    profile.session_arrival_per_hour = 5.2;
    profile.session_lifetime_mu = std::log(0.8 * 86400.0);
    profile.session_lifetime_sigma = 1.0;
    profile.long_gap_probability = 0.0;
    profile.serial_tasks = false;
    return profile;
}

WorkloadGenerator::WorkloadGenerator(sim::Rng rng) : rng_(rng)
{
}

Trace
WorkloadGenerator::generate(const TraceProfile& profile,
                            const GeneratorOptions& options)
{
    Trace trace;
    trace.name = profile.name;
    trace.makespan = options.makespan;

    const double arrival_mean_s =
        3600.0 / std::max(1e-9, profile.session_arrival_per_hour *
                                    options.arrival_rate_scale);
    sim::Time t = sim::from_seconds(rng_.exponential(arrival_mean_s));
    SessionId next_id = 1;
    while (t < options.makespan &&
           (options.max_sessions < 0 ||
            next_id <= options.max_sessions)) {
        trace.sessions.push_back(make_session(profile, next_id++, t,
                                              options.makespan,
                                              options.sessions_survive_trace));
        t += sim::from_seconds(rng_.exponential(arrival_mean_s));
    }
    return trace;
}

SessionSpec
WorkloadGenerator::make_session(const TraceProfile& profile, SessionId id,
                                sim::Time start, sim::Time trace_end,
                                bool survive_trace)
{
    SessionSpec session;
    session.id = id;
    session.start_time = start;
    if (survive_trace) {
        session.end_time = trace_end;
    } else {
        const double lifetime_s = rng_.lognormal(
            profile.session_lifetime_mu, profile.session_lifetime_sigma);
        session.end_time =
            std::min(trace_end, start + sim::from_seconds(lifetime_s));
    }

    // Resource request: GPUs from the profile weights; CPU/memory/VRAM
    // scale with the GPU count (p3-style shapes).
    const std::size_t gpu_idx =
        rng_.weighted_index(profile.gpu_count_weights);
    const std::int32_t gpus =
        kGpuOptions[std::min<std::size_t>(gpu_idx, 3)];
    session.resources.gpus = gpus;
    session.resources.millicpus = 4000 * gpus;
    session.resources.memory_mb = 16384LL * gpus;
    session.resources.vram_gb = 16.0 * gpus;

    // Model/dataset assignment: random domain, then a random pair within
    // the domain (mirrors the paper's workload driver, §5.1.2).
    const auto domain =
        static_cast<nblang::Domain>(rng_.uniform_int(0, 2));
    session.domain = domain;
    const auto models = nblang::models_in_domain(domain);
    const auto datasets = nblang::datasets_in_domain(domain);
    session.model = models[static_cast<std::size_t>(rng_.uniform_int(
                               0, static_cast<std::int64_t>(
                                      models.size()) - 1))]
                        .name;
    session.dataset =
        datasets[static_cast<std::size_t>(rng_.uniform_int(
                     0, static_cast<std::int64_t>(datasets.size()) - 1))]
            .name;

    // Session heterogeneity (§2.3.3): some sessions never train, some are
    // mostly idle with heavily stretched think times.
    double idle_multiplier = 1.0;
    const double category = rng_.uniform();
    if (category < profile.no_task_fraction) {
        return session;  // reserved GPUs, zero training events
    }
    if (category < profile.no_task_fraction +
                       profile.idle_session_fraction) {
        idle_multiplier = profile.idle_iat_multiplier;
    }

    // Task sequence: submissions are serial within a session; the next
    // submit time is at least the previous task's completion plus a short
    // think time, with occasional long dormant gaps.
    sim::Time submit =
        start + sim::from_seconds(
                    (profile.iat_floor_s * 0.25 +
                     rng_.lognormal(profile.iat_mu, profile.iat_sigma)) *
                    idle_multiplier);
    std::int32_t seq = 0;
    while (submit < session.end_time) {
        CellTask task;
        task.session = id;
        task.seq = seq++;
        task.submit_time = submit;
        // Heavy-tail knob: Pareto durations replace the lognormal draw
        // entirely (one code path per profile, so the off position
        // consumes exactly the historical stream).
        const double duration_s =
            profile.duration_pareto_alpha > 0.0
                ? std::clamp(rng_.pareto(profile.duration_pareto_xm,
                                         profile.duration_pareto_alpha),
                             profile.duration_floor_s, kMaxDurationSeconds)
                : std::clamp(rng_.lognormal(profile.duration_mu,
                                            profile.duration_sigma),
                             profile.duration_floor_s, kMaxDurationSeconds);
        task.duration = sim::from_seconds(duration_s);
        task.is_gpu = rng_.bernoulli(profile.gpu_task_fraction);
        session.tasks.push_back(std::move(task));

        double gap_s =
            profile.iat_floor_s +
            rng_.lognormal(profile.iat_mu, profile.iat_sigma);
        if (profile.long_gap_probability > 0.0 &&
            rng_.bernoulli(profile.long_gap_probability)) {
            gap_s += rng_.lognormal(profile.long_gap_mu,
                                    profile.long_gap_sigma);
        }
        gap_s *= idle_multiplier;
        // Notebook users do not submit concurrent tasks (§2.3.2): the next
        // submit waits for the previous completion plus a minimum think
        // time. Batch traces (Philly/Alibaba) have no such constraint.
        if (profile.serial_tasks) {
            gap_s = std::max(gap_s, duration_s + 10.0);
        }
        submit += sim::from_seconds(gap_s);
    }
    return session;
}

Trace
WorkloadGenerator::adobe_excerpt_17_5h()
{
    GeneratorOptions options;
    options.makespan = 17 * sim::kHour + 30 * sim::kMinute;
    options.max_sessions = 90;  // Fig. 7: at most 90 concurrent sessions
    options.sessions_survive_trace = true;
    return generate(TraceProfile::adobe(), options);
}

Trace
WorkloadGenerator::adobe_summer_90d()
{
    TraceProfile profile = TraceProfile::adobe();
    // Scaled-down summer portion: fewer arrivals but long-lived sessions,
    // preserving the growth shape of Fig. 20 at tractable event counts.
    profile.session_arrival_per_hour = 0.22;
    profile.session_lifetime_mu = std::log(18.0 * 86400.0);
    profile.session_lifetime_sigma = 0.8;
    profile.long_gap_probability = 0.2;
    profile.long_gap_mu = std::log(4.0 * 3600.0);
    // Production-trace heterogeneity (Fig. 2c): nearly half the sessions
    // never train (~70% of reserved GPUs completely idle in the paper);
    // another ~30% train very rarely, so ~75% of sessions use their GPUs
    // at most 5% of their lifetime.
    profile.no_task_fraction = 0.45;
    profile.idle_session_fraction = 0.3;
    profile.idle_iat_multiplier = 18.0;

    GeneratorOptions options;
    options.makespan = 90 * sim::kDay;
    options.max_sessions = -1;
    options.sessions_survive_trace = false;
    return generate(profile, options);
}

}  // namespace nbos::workload
