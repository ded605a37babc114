#include "sched/autoscaler.hpp"

#include <algorithm>
#include <cmath>

namespace nbos::sched {

AutoScaleDecision
evaluate_autoscaler(const AutoScalerInputs& inputs,
                    const AutoScalerConfig& config)
{
    AutoScaleDecision decision;
    if (inputs.gpus_per_server <= 0) {
        return decision;
    }
    const double expected_gpus =
        config.multiplier * static_cast<double>(inputs.committed_gpus);
    const std::int32_t desired_servers = std::max(
        config.min_servers,
        static_cast<std::int32_t>(
            std::ceil(expected_gpus /
                      static_cast<double>(inputs.gpus_per_server))) +
            config.buffer_servers);

    if (desired_servers > inputs.current_servers) {
        decision.add_servers = desired_servers - inputs.current_servers;
        return decision;
    }
    if (desired_servers < inputs.current_servers) {
        // Gradual scale-in: release at most 1-2 idle servers per step.
        const std::int32_t excess = inputs.current_servers - desired_servers;
        decision.remove_servers =
            std::min({excess, inputs.idle_servers, kMaxReleasePerStep});
        decision.remove_servers = std::max(decision.remove_servers, 0);
    }
    return decision;
}

}  // namespace nbos::sched
