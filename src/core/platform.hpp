/**
 * @file
 * The configuration of one run of a workload trace under any of the
 * §5.1.1 policies (see core::run in core/engine_api.hpp).
 *
 * Two NotebookOS engines are provided, mirroring the paper's methodology:
 *  - the *prototype* engine drives the full stack (Raft-replicated
 *    kernels, executor elections, Global/Local schedulers) and is used
 *    for the 17.5-hour excerpt experiments (§5.2);
 *  - the *fast* engine is the detailed analytic simulator used for the
 *    90-day studies (§5.5), modelling the same scheduling decisions
 *    without per-message consensus traffic.
 */
#ifndef NBOS_CORE_PLATFORM_HPP
#define NBOS_CORE_PLATFORM_HPP

#include "core/results.hpp"
#include "sched/scheduler_types.hpp"
#include "workload/trace.hpp"

namespace nbos::core {

/** Engine choice and knobs for one run. */
struct PlatformConfig
{
    Policy policy = Policy::kNotebookOS;
    /** Use the fast analytic engine for NotebookOS (90-day studies). */
    bool fast_mode = false;
    /** Scheduler configuration: the NotebookOS policies' scheduler, and
     *  the fleet's hardware and timings for every policy. */
    sched::SchedulerConfig scheduler{};
    std::uint64_t seed = 1;

    /** Defaults tuned for long prototype runs (Raft heartbeats at 1 s so
     *  a 17.5-hour cluster-scale run stays tractable; commit latency is
     *  unaffected because replication is proposal-driven). */
    static PlatformConfig prototype_defaults();
};

}  // namespace nbos::core

#endif  // NBOS_CORE_PLATFORM_HPP
