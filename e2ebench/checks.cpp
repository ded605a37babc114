#include "checks.hpp"

#include <algorithm>
#include <utility>

namespace e2e {

using namespace nbos;

std::vector<std::string>
check_outputs(const core::RunResponse& run, const CheckSpec& spec)
{
    std::vector<std::string> errors;
    const core::ExperimentResults& results = run.results;

    // Every submitted cell ends exactly once: one outcome per
    // (session, seq), completed or aborted, and as many as were submitted.
    std::vector<std::pair<workload::SessionId, std::int32_t>> keys;
    keys.reserve(results.tasks.size());
    std::uint64_t completed = 0, aborted = 0;
    for (const core::TaskOutcome& task : results.tasks) {
        keys.emplace_back(task.session, task.seq);
        (task.aborted ? aborted : completed) += 1;
    }
    std::sort(keys.begin(), keys.end());
    if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
        errors.push_back("a cell ended more than once");
    }
    if (completed + aborted != spec.input.cells) {
        errors.push_back("completed + aborted = " +
                         std::to_string(completed + aborted) + " but " +
                         std::to_string(spec.input.cells) +
                         " cells were submitted");
    }

    std::size_t bad_order = 0;
    for (const core::TaskOutcome& task : results.tasks) {
        if (task.aborted) {
            continue;
        }
        if (task.exec_start < task.submit || task.reply < task.exec_end) {
            ++bad_order;
        }
    }
    if (bad_order != 0) {
        errors.push_back(std::to_string(bad_order) +
                         " tasks with exec_start < submit or "
                         "reply < exec_end");
    }

    const double provisioned = results.gpu_hours_provisioned();
    const double committed = results.gpu_hours_committed();
    if (committed > provisioned * (1.0 + 1e-9)) {
        errors.push_back("committed GPU-hours " + std::to_string(committed) +
                         " exceed provisioned " +
                         std::to_string(provisioned));
    }

    const sched::SchedulerStats& stats = results.sched_stats;
    if (spec.fixed_fleet &&
        (aborted != 0 || stats.migrations != 0 || stats.scale_outs != 0)) {
        errors.push_back("fixed fleet saw " + std::to_string(aborted) +
                         " aborts, " + std::to_string(stats.migrations) +
                         " migrations, " + std::to_string(stats.scale_outs) +
                         " scale-outs");
    }
    if (spec.pulled && (spec.pulled->sessions != spec.input.sessions ||
                        spec.pulled->cells != spec.input.cells)) {
        errors.push_back("source handed out " +
                         std::to_string(spec.pulled->sessions) +
                         " sessions and " +
                         std::to_string(spec.pulled->cells) +
                         " cells of the input's " +
                         std::to_string(spec.input.sessions) + " and " +
                         std::to_string(spec.input.cells));
    }
    if (spec.pulled && spec.pulled->sessions != stats.kernels_created) {
        errors.push_back("source handed out " +
                         std::to_string(spec.pulled->sessions) +
                         " sessions but the engine created " +
                         std::to_string(stats.kernels_created) + " kernels");
    }
    return errors;
}

}  // namespace e2e
