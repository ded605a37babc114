/**
 * @file
 * Experiment result structures shared by every policy engine, plus the
 * trace-derived reference series (oracle / reservation / session counts)
 * used across the paper's figures.
 */
#ifndef NBOS_CORE_RESULTS_HPP
#define NBOS_CORE_RESULTS_HPP

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "metrics/percentiles.hpp"
#include "metrics/timeseries.hpp"
#include "sched/scheduler_types.hpp"
#include "workload/trace.hpp"

namespace nbos::core {

/** The scheduling policies evaluated in §5. */
enum class Policy
{
    kReservation,    ///< GPUs bound for the whole session (Colab-style).
    kBatch,          ///< FCFS batch scheduler, on-demand containers.
    kNotebookOS,     ///< Replicated kernels, dynamic binding (this paper).
    kNotebookOSLCP,  ///< Large warm-container pool variant.
};

/** Human-readable policy name. */
const char* to_string(Policy policy);

/** Parse a to_string(Policy) name back into the enum.
 *  @return std::nullopt for unknown names. */
std::optional<Policy> policy_from_string(std::string_view name);

/**
 * Outcome of one cell task under some policy: one row per submitted cell,
 * each fact held once. In a NotebookOS run the windowed driver
 * (core::drive_windows) creates the row as it hands the cell out and the
 * engine fills the rest in place; the baselines fill their own.
 */
struct TaskOutcome
{
    workload::SessionId session = -1;
    std::int32_t seq = 0;
    std::int32_t gpus = 0;
    bool is_gpu = true;
    bool migrated = false;
    bool aborted = false;
    sim::Time submit = 0;
    sim::Time exec_start = 0;
    sim::Time exec_end = 0;
    sim::Time reply = 0;
    /** @name Fig. 15 step stamps (Figs. 16-19 breakdown)
     *
     * The prototype copies them from its sched::RequestTrace, whose other
     * fields are the row's own times and flags; the baselines set only
     * replica_replied, and the fast engine none.
     */
    ///@{
    sim::Time gs_received = 0;
    sim::Time gs_dispatched = 0;
    sim::Time replica_received = 0;
    sim::Time replica_replied = 0;
    sim::Time election_latency = 0;
    ///@}

    /** §5.3.2: interval between submission and execution start. */
    sim::Time interactivity_delay() const { return exec_start - submit; }

    /** §5.3.3: interval between submission and completed reply. */
    sim::Time tct() const { return reply - submit; }
};

/** Everything one experiment run produces. */
struct ExperimentResults
{
    Policy policy = Policy::kNotebookOS;
    std::string trace_name;
    sim::Time makespan = 0;
    std::vector<TaskOutcome> tasks;

    /** Provider-side capacity: GPUs on provisioned servers over time. */
    metrics::TimeSeries provisioned_gpus;
    /** GPUs exclusively bound to running work over time. */
    metrics::TimeSeries committed_gpus;
    /** Cluster subscription ratio over time (NotebookOS only). */
    metrics::TimeSeries subscription_ratio;
    /** Scheduler events (kernel creations, migrations, scaling). */
    std::vector<sched::SchedulerEvent> events;
    /** Small-state sync latency (ms, NotebookOS only). */
    metrics::Percentiles sync_ms;
    /** Data-store read/write latency (ms). */
    metrics::Percentiles read_ms;
    metrics::Percentiles write_ms;
    /** Scheduler counters (NotebookOS only). */
    sched::SchedulerStats sched_stats{};
    /** Network delivery counters with the per-fault-class drop breakdown
     *  (NotebookOS prototype engine only; zeros on the fast engine). */
    net::NetworkStats net_stats{};
    /** Cumulative bytes written to the data store. */
    std::uint64_t store_bytes_written = 0;

    /** Interactivity delays of completed GPU tasks, seconds (Fig. 9a). */
    metrics::Percentiles interactivity_delays_seconds() const;
    /** Task completion times in milliseconds (Fig. 9b). */
    metrics::Percentiles tct_ms() const;
    /** Area under provisioned_gpus over the makespan. */
    double gpu_hours_provisioned() const;
    /** Area under committed_gpus over the makespan. */
    double gpu_hours_committed() const;
    /** Number of concurrently running trainings over time (Fig. 7). */
    metrics::TimeSeries active_trainings_series() const;
    /** Count of aborted tasks. */
    std::size_t aborted_count() const;
};

/** Build a step series from (time, delta) pairs (sorted internally). */
metrics::TimeSeries
series_from_deltas(std::vector<std::pair<sim::Time, double>> deltas);

/** Oracle provisioning: exactly the GPUs demanded by running tasks. */
metrics::TimeSeries oracle_gpu_series(const workload::Trace& trace);

/** GPUs a Reservation platform keeps bound: sum over active sessions. */
metrics::TimeSeries reserved_gpu_series(const workload::Trace& trace);

/** Active sessions over time (Fig. 7 / Fig. 20). */
metrics::TimeSeries active_sessions_series(const workload::Trace& trace);

/**
 * Fig. 13: GPU-hours of re-execution avoided by NotebookOS's state
 * persistence, for an idle-reclamation interval @p reclaim. Whenever a
 * session is idle longer than the interval, a state-less platform reclaims
 * the kernel and the user must re-run the notebook's cells on return.
 *
 * @return cumulative GPU-hours-saved series sampled at @p step.
 */
metrics::TimeSeries reexecution_saved_series(const workload::Trace& trace,
                                             sim::Time reclaim,
                                             sim::Time step);

}  // namespace nbos::core

#endif  // NBOS_CORE_RESULTS_HPP
