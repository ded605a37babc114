#include "workload/trace.hpp"

#include <algorithm>
#include <cstdio>

namespace nbos::workload {

std::size_t
Trace::task_count() const
{
    std::size_t count = 0;
    for (const SessionSpec& session : sessions) {
        count += session.tasks.size();
    }
    return count;
}

std::vector<const CellTask*>
Trace::tasks_by_submit_time() const
{
    std::vector<const CellTask*> tasks;
    tasks.reserve(task_count());
    for (const SessionSpec& session : sessions) {
        for (const CellTask& task : session.tasks) {
            tasks.push_back(&task);
        }
    }
    std::stable_sort(tasks.begin(), tasks.end(),
                     [](const CellTask* a, const CellTask* b) {
                         if (a->submit_time != b->submit_time) {
                             return a->submit_time < b->submit_time;
                         }
                         if (a->session != b->session) {
                             return a->session < b->session;
                         }
                         return a->seq < b->seq;
                     });
    return tasks;
}

metrics::Percentiles
Trace::durations_seconds() const
{
    metrics::Percentiles p;
    for (const SessionSpec& session : sessions) {
        for (const CellTask& task : session.tasks) {
            p.add(sim::to_seconds(task.duration));
        }
    }
    return p;
}

metrics::Percentiles
Trace::iats_seconds() const
{
    metrics::Percentiles p;
    for (const SessionSpec& session : sessions) {
        for (std::size_t i = 1; i < session.tasks.size(); ++i) {
            p.add(sim::to_seconds(session.tasks[i].submit_time -
                                  session.tasks[i - 1].submit_time));
        }
    }
    return p;
}

metrics::Percentiles
Trace::session_busy_fractions() const
{
    metrics::Percentiles p;
    for (const SessionSpec& session : sessions) {
        const sim::Time lifetime = session.end_time - session.start_time;
        if (lifetime <= 0) {
            continue;
        }
        sim::Time busy = 0;
        for (const CellTask& task : session.tasks) {
            if (task.is_gpu) {
                busy += task.duration;
            }
        }
        p.add(std::min(1.0, sim::to_seconds(busy) /
                                sim::to_seconds(lifetime)));
    }
    return p;
}

std::string
cell_code(const SessionSpec& session, const CellTask& task)
{
    const auto model = nblang::find_model(session.model);
    const double model_mb =
        model ? static_cast<double>(model->param_bytes) / (1024.0 * 1024.0)
              : 100.0;
    const double vram_mb =
        std::min(16384.0 * session.resources.gpus, model_mb + 2048.0);
    const double duration_s = sim::to_seconds(task.duration);
    char buf[64];
    std::string code;
    if (!task.is_gpu) {
        // CPU-only cell: light bookkeeping state plus CPU compute.
        code += "note_" + std::to_string(task.seq) + " = \"edit\"\n";
        std::snprintf(buf, sizeof(buf), "cpu_compute(%.3f)\n", duration_s);
        code += buf;
        return code;
    }
    if (task.seq == 0) {
        // First cell: set up the session's model/dataset/state.
        code += "model = load_model(\"" + session.model + "\")\n";
        code += "data = load_dataset(\"" + session.dataset + "\")\n";
        code += "step = 0\n";
    } else {
        code += "step = step + 1\n";
    }
    // Small state (goes through Raft SMR) ...
    std::snprintf(buf, sizeof(buf), "loss_%d = %.3f\n", task.seq,
                  1.0 / (1.0 + task.seq));
    code += buf;
    // ... the training itself, with the trace-calibrated duration ...
    std::snprintf(buf, sizeof(buf), "gpu_compute(%.3f, vram_mb=%.3f)\n",
                  duration_s, vram_mb);
    code += buf;
    // ... and large state (checkpointed to the Distributed Data Store).
    // Periodically the cell *reads* the previous weights (fine-tuning from
    // the last checkpoint), forcing a data-store page-in whenever a
    // different replica became the executor (Fig. 11 "Reads").
    if (task.seq > 0 && task.seq % 7 == 3) {
        std::snprintf(buf, sizeof(buf),
                      "weights = weights + tensor(%.3f)\n", model_mb);
    } else {
        std::snprintf(buf, sizeof(buf), "weights = tensor(%.3f)\n",
                      model_mb);
    }
    code += buf;
    return code;
}

}  // namespace nbos::workload
