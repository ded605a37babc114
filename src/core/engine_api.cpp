#include "core/engine_api.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "core/engine.hpp"
#include "core/window_driver.hpp"

namespace nbos::core {
namespace {

void
validate_or_throw(const PlatformConfig& config)
{
    const std::string error = validate_config(config);
    if (!error.empty()) {
        throw std::invalid_argument("PlatformConfig: " + error);
    }
}

}  // namespace

RunResponse
run(const RunRequest& request)
{
    if ((request.trace != nullptr) == (request.source != nullptr)) {
        throw std::invalid_argument(
            "RunRequest: set exactly one of trace and source");
    }

    PlatformConfig config = request.config;
    if (request.seed) {
        config.seed = *request.seed;
    }
    if (request.shards) {
        config.scheduler.shards = *request.shards;
    }
    if (request.routing) {
        config.scheduler.routing = *request.routing;
    }
    if (request.chaos) {
        config.scheduler.chaos = *request.chaos;
    }

    // Resolve the engine. An empty name validates the caller's (policy,
    // fast_mode) pair as-is — so an inconsistent pair surfaces as
    // "PlatformConfig: fast_mode is only supported..." — then derives the
    // built-in name from it. A named engine resolves first (an unknown
    // name beats config problems), then forces policy/fast_mode from the
    // engine before validating.
    std::string name = request.engine;
    std::unique_ptr<PolicyEngine> engine;
    if (name.empty()) {
        validate_or_throw(config);
        name = engine_name(config.policy, config.fast_mode);
        engine = EngineRegistry::instance().create(name);
    } else {
        engine = EngineRegistry::instance().create(name);
        if (engine == nullptr) {
            throw std::invalid_argument("unknown engine '" + name + "'");
        }
        config.policy = engine->policy();
        config.fast_mode = name == kEngineFast;
        validate_or_throw(config);
    }

    // The NotebookOS engines have one driver each, fed by a source.
    if (name == kEngineFast || name == kEnginePrototype) {
        const auto drive = name == kEngineFast ? drive_fast : drive_prototype;
        if (request.source != nullptr) {
            return drive(*request.source, config);
        }
        workload::TraceSessionSource source(*request.trace);
        return drive(source, config);
    }
    if (request.source != nullptr) {
        throw std::invalid_argument("engine '" + name +
                                    "' has no streamed driver");
    }
    RunResponse response;
    response.results = engine->run(*request.trace, config);
    return response;
}

}  // namespace nbos::core
