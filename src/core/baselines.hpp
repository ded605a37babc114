/**
 * @file
 * The three baseline policies of §5.1.1, implemented as trace-driven
 * engines over the simulation substrate.
 *
 *  - Reservation: one long-running kernel container per session with GPUs
 *    exclusively bound for the whole session lifetime (Colab-style).
 *  - Batch: an FCFS batch GPU scheduler; each submission provisions a
 *    container on demand, loads model+dataset from remote storage,
 *    executes, writes back, and terminates.
 *  - NotebookOS (LCP): a large pool of pre-warmed containers shared across
 *    sessions; each task grabs a warm container, warms it up (data
 *    download), executes, and returns it to the pool.
 */
#ifndef NBOS_CORE_BASELINES_HPP
#define NBOS_CORE_BASELINES_HPP

#include "core/results.hpp"
#include "sched/scheduler_types.hpp"
#include "workload/trace.hpp"

namespace nbos::core {

/** Run the Reservation baseline over @p trace. */
ExperimentResults run_reservation(const workload::Trace& trace,
                                  const sched::SchedulerConfig& config,
                                  std::uint64_t seed);

/** Run the Batch (FCFS) baseline over @p trace. */
ExperimentResults run_batch(const workload::Trace& trace,
                            const sched::SchedulerConfig& config,
                            std::uint64_t seed);

/** Run the NotebookOS (LCP) baseline over @p trace. */
ExperimentResults run_lcp(const workload::Trace& trace,
                          const sched::SchedulerConfig& config,
                          std::uint64_t seed);

}  // namespace nbos::core

#endif  // NBOS_CORE_BASELINES_HPP
