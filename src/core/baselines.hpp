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
#include "storage/datastore.hpp"
#include "workload/trace.hpp"

namespace nbos::core {

/** Knobs shared by the baseline engines. */
struct BaselineConfig
{
    cluster::ContainerTimings timings{};
    sim::Time server_provision_min = 30 * sim::kSecond;
    sim::Time server_provision_max = 90 * sim::kSecond;
    sched::HopLatencies hops{};
    /** Batch releases empty servers after this idle period. */
    sim::Time batch_idle_release = 2 * sim::kMinute;
    /** LCP keeps warm servers longer before releasing them. */
    sim::Time lcp_idle_release = 10 * sim::kMinute;
    /** Warm containers maintained per server in the LCP pool. */
    std::int32_t lcp_warm_per_server = 4;
    storage::Backend backend = storage::Backend::kS3;
    cluster::ResourceSpec server_shape = cluster::ResourceSpec::server_8gpu();
};

/** Run the Reservation baseline over @p trace. */
ExperimentResults run_reservation(const workload::Trace& trace,
                                  const BaselineConfig& config,
                                  std::uint64_t seed);

/** Run the Batch (FCFS) baseline over @p trace. */
ExperimentResults run_batch(const workload::Trace& trace,
                            const BaselineConfig& config,
                            std::uint64_t seed);

/** Run the NotebookOS (LCP) baseline over @p trace. */
ExperimentResults run_lcp(const workload::Trace& trace,
                          const BaselineConfig& config, std::uint64_t seed);

}  // namespace nbos::core

#endif  // NBOS_CORE_BASELINES_HPP
