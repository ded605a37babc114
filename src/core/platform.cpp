#include "core/platform.hpp"

namespace nbos::core {

PlatformConfig
PlatformConfig::prototype_defaults()
{
    PlatformConfig config;
    config.scheduler.kernel.raft.heartbeat_interval = 1 * sim::kSecond;
    config.scheduler.kernel.raft.election_timeout_min = 2 * sim::kSecond;
    config.scheduler.kernel.raft.election_timeout_max = 4 * sim::kSecond;
    config.scheduler.kernel.raft.snapshot_threshold = 16;
    config.scheduler.kernel.proposal_retry = 200 * sim::kMillisecond;
    config.scheduler.initial_servers = 4;
    return config;
}

}  // namespace nbos::core
