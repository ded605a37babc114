/**
 * @file
 * Trace structures: sessions and cell tasks, plus the statistics helpers
 * used for the Fig. 2 workload-characterization CDFs.
 */
#ifndef NBOS_WORKLOAD_TRACE_HPP
#define NBOS_WORKLOAD_TRACE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/resources.hpp"
#include "metrics/percentiles.hpp"
#include "nblang/catalog.hpp"
#include "sim/time.hpp"

namespace nbos::workload {

/** Identifier of a user session within a trace. */
using SessionId = std::int64_t;

/** One user-submitted cell task. */
struct CellTask
{
    SessionId session = -1;
    /** Position within the session (0 = first cell). */
    std::int32_t seq = 0;
    /** Absolute submission time. */
    sim::Time submit_time = 0;
    /** Execution duration once running (the trace's "training duration"). */
    sim::Time duration = 0;
    /** True if the task requires GPUs (an IDLT task). */
    bool is_gpu = true;
    /** Explicit NbLang source for this cell; empty means the session's
     *  generated program, cell_code(session, *this). Generation and trace
     *  loading leave it empty: only the prototype's kernels execute a
     *  cell, and it derives the program when it submits the cell. */
    std::string code;
};

/** One user session: a long-lived notebook with its task sequence. */
struct SessionSpec
{
    SessionId id = -1;
    sim::Time start_time = 0;
    sim::Time end_time = 0;
    /** The session's resource request (GPUs, CPUs, memory, VRAM). */
    cluster::ResourceSpec resources{};
    nblang::Domain domain = nblang::Domain::kComputerVision;
    std::string model;
    std::string dataset;
    std::vector<CellTask> tasks;
};

/** A full workload trace. */
struct Trace
{
    std::string name;
    std::vector<SessionSpec> sessions;
    sim::Time makespan = 0;

    /** Total number of tasks across all sessions. */
    std::size_t task_count() const;

    /** Pointers to every task ordered by submission time. */
    std::vector<const CellTask*> tasks_by_submit_time() const;

    /** Task durations in seconds (Fig. 2a). */
    metrics::Percentiles durations_seconds() const;

    /** Per-session inter-arrival times in seconds (Fig. 2b; IATs are
     *  measured within each session independently, as in §2.3.2). */
    metrics::Percentiles iats_seconds() const;

    /** Per-session fraction of lifetime spent executing GPU tasks
     *  (Fig. 2c, "Frac. GPU Utilized"). */
    metrics::Percentiles session_busy_fractions() const;
};

/**
 * The NbLang program a generated cell executes: a pure function of the
 * session's model, dataset and GPU count and of the cell's seq, duration
 * and kind. A GPU session's first cell loads the model and dataset and
 * sets `step = 0`, later cells advance `step`; every GPU cell writes a
 * small `loss_<seq>` (Raft SMR) and a large `weights` tensor (the data
 * store), reading the previous weights on every seventh cell from seq 3.
 */
std::string cell_code(const SessionSpec& session, const CellTask& task);

}  // namespace nbos::workload

#endif  // NBOS_WORKLOAD_TRACE_HPP
