/**
 * @file
 * Synthetic workload generation calibrated to the three traces analyzed in
 * §2.3 of the paper.
 *
 * The proprietary AdobeTrace cannot be redistributed, so we fit log-normal
 * marginals to every percentile the paper publishes and re-synthesize
 * statistically matching workloads (see DESIGN.md §1 for the substitution
 * argument). Philly and Alibaba profiles reproduce the published medians
 * for the Fig. 2 comparison.
 */
#ifndef NBOS_WORKLOAD_GENERATOR_HPP
#define NBOS_WORKLOAD_GENERATOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "workload/trace.hpp"

namespace nbos::workload {

/** Distribution parameters for one trace family. */
struct TraceProfile
{
    std::string name;

    /** Task duration ~ lognormal(mu, sigma), seconds. */
    double duration_mu = 4.787;  // ln(120 s)
    double duration_sigma = 1.7;
    /** Hard floor on durations (trace sample granularity). */
    double duration_floor_s = 15.0;

    /** Within-session IAT = iat_floor + lognormal(mu, sigma), seconds. */
    double iat_mu = 4.094;  // ln(60 s)
    double iat_sigma = 2.0;
    double iat_floor_s = 240.0;

    /** Session arrivals: Poisson at this hourly rate. */
    double session_arrival_per_hour = 5.2;
    /** Session lifetime ~ lognormal(mu, sigma), seconds. */
    double session_lifetime_mu = 11.7;  // ~ ln(1.4 days)
    double session_lifetime_sigma = 1.0;

    /** Fraction of tasks that use GPUs. */
    double gpu_task_fraction = 1.0;
    /** Weights for requesting 1 / 2 / 4 / 8 GPUs per session. */
    std::vector<double> gpu_count_weights{0.45, 0.25, 0.20, 0.10};

    /** True if tasks within a session are strictly serial (notebook users
     *  wait for a cell to finish, §2.3.2); false for batch traces whose
     *  schedulers submit jobs concurrently (Philly/Alibaba). */
    bool serial_tasks = true;

    /** Fraction of sessions that never submit a training task — their
     *  reserved GPUs stay completely idle (§2.3.3: ~70%% of GPUs were
     *  never used by their session). */
    double no_task_fraction = 0.0;
    /** Fraction of sessions that are mostly idle: their think-time gaps
     *  are stretched by idle_iat_multiplier (the 74-75%% of sessions that
     *  use GPUs at most 5%% of their lifetime). */
    double idle_session_fraction = 0.0;
    double idle_iat_multiplier = 15.0;

    /** Probability that an IAT is a long dormant gap (user walks away) —
     *  this is what makes notebook sessions mostly idle (§2.3.3). */
    double long_gap_probability = 0.12;
    /** Long gap ~ lognormal(mu, sigma), seconds. */
    double long_gap_mu = 8.88;  // ~ ln(2 h)
    double long_gap_sigma = 1.0;

    /** @name Heavy-tailed cell costs (the `heavy_tail` profile)
     *
     * When duration_pareto_alpha > 0, task durations are drawn from
     * Pareto(duration_pareto_xm, duration_pareto_alpha) instead of the
     * lognormal — alpha near 1 produces the infinite-variance tails that
     * stress migration and the SR cap. Off (0, the default) the lognormal
     * draw is consumed exactly as before, so every historical trace stays
     * byte-identical.
     */
    ///@{
    double duration_pareto_alpha = 0.0;
    double duration_pareto_xm = 20.0;
    ///@}

    /** Profile matching the AdobeTrace percentiles in §2.3
     *  (p50 dur 120 s, p50 IAT 300 s, min IAT 240 s). */
    static TraceProfile adobe();

    /** PhillyTrace profile (p50 dur 621 s, p50 IAT 44 s). */
    static TraceProfile philly();

    /** AlibabaTrace profile (p50 dur 957 s, p50 IAT 38 s). */
    static TraceProfile alibaba();
};

/** Generation knobs independent of the trace family. */
struct GeneratorOptions
{
    /** Trace makespan. */
    sim::Time makespan = 17 * sim::kHour + 30 * sim::kMinute;
    /** Cap on generated sessions (<0 means unlimited). For multi-tenant
     *  profiles the cap applies per tenant stream, so merged totals stay
     *  the sum of the per-tenant marginals. */
    std::int64_t max_sessions = -1;
    /** If true, sessions outlive the trace end (the 17.5-hour excerpt in
     *  Fig. 7 only ever accumulates sessions). */
    bool sessions_survive_trace = false;
    /** Multiplier on the profile's session arrival rate — the scale tier
     *  drives million-session streams through the calibrated profiles
     *  without stretching the makespan. 1.0 (the default) multiplies the
     *  rate exactly, so every historical trace stays byte-identical. */
    double arrival_rate_scale = 1.0;
};

/**
 * Deterministic workload synthesizer.
 *
 * @par Authoring new workload profiles
 * Named profiles (workload/profiles.hpp) compose this generator rather
 * than reimplementing it: a profile owns the arrival process — *when*
 * sessions start — and delegates every per-session draw to make_session
 * on its own generator instance, so session shapes stay calibrated to
 * the §2.3 marginals. The contract that keeps the `adobe` / `philly` /
 * `alibaba` streams byte-identical forever: draws on rng() happen in
 * exactly the historical order (arrival gap, then the session's draws,
 * repeated), and any *new* randomness — burst schedules, thinning
 * accept/reject, tenant interleaves — comes from a stream derived via
 * sim::Rng::split() or an independently seeded Rng, never from extra
 * draws on the main stream.
 */
class WorkloadGenerator
{
  public:
    explicit WorkloadGenerator(sim::Rng rng);

    /** Generate a trace from @p profile. */
    Trace generate(const TraceProfile& profile,
                   const GeneratorOptions& options);

    /** Generate the 17.5-hour AdobeTrace excerpt used by the prototype
     *  evaluation (§5.2, Fig. 7: at most ~90 concurrent sessions). */
    Trace adobe_excerpt_17_5h();

    /** Generate the 90-day "summer portion" (Fig. 20, §5.5). */
    Trace adobe_summer_90d();

    /** Draw one session starting at @p start — the profile-authoring
     *  surface (see the class note): custom arrival processes call this
     *  per arrival and get byte-identical sessions to generate()'s. */
    SessionSpec make_session(const TraceProfile& profile, SessionId id,
                             sim::Time start, sim::Time trace_end,
                             bool survive_trace);

    /** The generator's main RNG stream, exposed so custom arrival
     *  processes draw their inter-arrival gaps in the historical order. */
    sim::Rng& rng() { return rng_; }

  private:
    sim::Rng rng_;
};

}  // namespace nbos::workload

#endif  // NBOS_WORKLOAD_GENERATOR_HPP
