/**
 * @file
 * The auto-scaler decision logic (§3.4.2), factored as a pure function so
 * tests can sweep it.
 *
 * Expected cluster capacity is sum(G') = f * sum(C), where sum(C) is the
 * number of GPUs actively committed to executing kernel replicas and f is
 * the aggressiveness multiplier (1.05 in the paper). A scaling buffer of
 * "extra" servers absorbs request bursts. Scale-in releases 1-2 idle
 * servers at a time.
 */
#ifndef NBOS_SCHED_AUTOSCALER_HPP
#define NBOS_SCHED_AUTOSCALER_HPP

#include <cstdint>

namespace nbos::sched {

/** Inputs to one auto-scaling evaluation. */
struct AutoScalerInputs
{
    /** GPUs actively committed to executing replicas (sum C). */
    std::int32_t committed_gpus = 0;
    /** Total GPUs across provisioned servers (sum G). */
    std::int32_t total_gpus = 0;
    /** GPUs per server (8 in the evaluation). */
    std::int32_t gpus_per_server = 8;
    /** Currently provisioned servers. */
    std::int32_t current_servers = 0;
    /** Servers with no containers at all (safe to release). */
    std::int32_t idle_servers = 0;
};

/** Tunables of the auto-scaler. */
struct AutoScalerConfig
{
    /** Aggressiveness multiplier f (§3.4.2 sets 1.05). */
    double multiplier = 1.05;
    /** "Extra" servers kept as the scaling buffer. */
    std::int32_t buffer_servers = 2;
    /** Never scale below this many servers. */
    std::int32_t min_servers = 1;
};

/** Most servers one evaluation releases (the paper's 1-2). */
inline constexpr std::int32_t kMaxReleasePerStep = 2;

/** Output of one evaluation. */
struct AutoScaleDecision
{
    std::int32_t add_servers = 0;
    std::int32_t remove_servers = 0;
};

/** Evaluate the §3.4.2 policy once. */
AutoScaleDecision evaluate_autoscaler(const AutoScalerInputs& inputs,
                                      const AutoScalerConfig& config);

}  // namespace nbos::sched

#endif  // NBOS_SCHED_AUTOSCALER_HPP
