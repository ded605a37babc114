#include "core/engine.hpp"

#include <utility>

#include "core/baselines.hpp"
#include "core/engine_api.hpp"
#include "core/platform.hpp"

namespace nbos::core {
namespace {

/** Adapter registering a plain run function as a PolicyEngine. */
class FunctionEngine : public PolicyEngine
{
  public:
    using RunFn = std::function<ExperimentResults(
        const workload::Trace&, const PlatformConfig&)>;

    FunctionEngine(std::string name, Policy policy, RunFn fn)
        : name_(std::move(name)), policy_(policy), fn_(std::move(fn))
    {
    }

    std::string name() const override { return name_; }
    Policy policy() const override { return policy_; }

    ExperimentResults
    run(const workload::Trace& trace,
        const PlatformConfig& config) const override
    {
        return fn_(trace, config);
    }

  private:
    std::string name_;
    Policy policy_;
    RunFn fn_;
};

EngineRegistry::Factory
function_factory(const char* name, Policy policy, FunctionEngine::RunFn fn)
{
    return [name, policy, fn = std::move(fn)] {
        return std::make_unique<FunctionEngine>(name, policy, fn);
    };
}

/** A NotebookOS engine resolved through the registry runs the same
 *  windowed driver core::run uses for it. */
FunctionEngine::RunFn
through_core_run(const char* name)
{
    return [name](const workload::Trace& trace,
                  const PlatformConfig& config) {
        RunRequest request;
        request.engine = name;
        request.config = config;
        request.trace = &trace;
        return core::run(request).results;
    };
}

/** Register the five built-in engines of §5.1.1. */
void
register_builtins(EngineRegistry& registry)
{
    registry.register_engine(
        kEngineReservation,
        function_factory(kEngineReservation, Policy::kReservation,
                         [](const workload::Trace& trace,
                            const PlatformConfig& config) {
                             return run_reservation(trace, config.scheduler,
                                                    config.seed);
                         }));
    registry.register_engine(
        kEngineBatch,
        function_factory(kEngineBatch, Policy::kBatch,
                         [](const workload::Trace& trace,
                            const PlatformConfig& config) {
                             return run_batch(trace, config.scheduler,
                                              config.seed);
                         }));
    registry.register_engine(
        kEngineLcp,
        function_factory(kEngineLcp, Policy::kNotebookOSLCP,
                         [](const workload::Trace& trace,
                            const PlatformConfig& config) {
                             return run_lcp(trace, config.scheduler,
                                            config.seed);
                         }));
    registry.register_engine(
        kEnginePrototype,
        function_factory(kEnginePrototype, Policy::kNotebookOS,
                         through_core_run(kEnginePrototype)));
    registry.register_engine(
        kEngineFast,
        function_factory(kEngineFast, Policy::kNotebookOS,
                         through_core_run(kEngineFast)));
}

}  // namespace

EngineRegistry&
EngineRegistry::instance()
{
    static EngineRegistry* registry = [] {
        auto* r = new EngineRegistry();
        register_builtins(*r);
        return r;
    }();
    return *registry;
}

bool
EngineRegistry::register_engine(const std::string& name, Factory factory)
{
    if (name.empty() || !factory) {
        return false;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    return factories_.emplace(name, std::move(factory)).second;
}

std::unique_ptr<PolicyEngine>
EngineRegistry::create(const std::string& name) const
{
    Factory factory;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = factories_.find(name);
        if (it == factories_.end()) {
            return nullptr;
        }
        factory = it->second;
    }
    return factory();
}

bool
EngineRegistry::contains(const std::string& name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return factories_.count(name) > 0;
}

std::vector<std::string>
EngineRegistry::names() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [name, factory] : factories_) {
        out.push_back(name);
    }
    return out;
}

const char*
engine_name(Policy policy, bool fast_mode)
{
    switch (policy) {
      case Policy::kReservation:
        return kEngineReservation;
      case Policy::kBatch:
        return kEngineBatch;
      case Policy::kNotebookOSLCP:
        return kEngineLcp;
      case Policy::kNotebookOS:
        return fast_mode ? kEngineFast : kEnginePrototype;
    }
    return kEnginePrototype;
}

std::string
validate_config(const PlatformConfig& config)
{
    if (config.fast_mode && config.policy != Policy::kNotebookOS) {
        return std::string("fast_mode is only supported by the ") +
               to_string(Policy::kNotebookOS) + " policy; '" +
               to_string(config.policy) + "' has no fast engine";
    }
    if (config.scheduler.shards < 1) {
        return "scheduler.shards must be >= 1";
    }
    // Both NotebookOS engines divide by the autoscaler window or re-arm
    // these periodic services at the same instant, and a kernel with no
    // replicas cannot be placed.
    if (config.scheduler.autoscale_interval <= 0) {
        return "scheduler.autoscale_interval must be positive";
    }
    if (config.scheduler.health_check_interval <= 0) {
        return "scheduler.health_check_interval must be positive";
    }
    if (config.scheduler.prewarm_check_interval <= 0) {
        return "scheduler.prewarm_check_interval must be positive";
    }
    if (config.scheduler.kernel.replica_count < 1) {
        return "scheduler.kernel.replica_count must be >= 1";
    }
    // A zero heartbeat or election timeout floods the event queue, an
    // empty election window would silently collapse to its minimum, and a
    // zero proposal or migration retry re-arms at the same instant forever.
    const raft::RaftConfig& raft = config.scheduler.kernel.raft;
    if (raft.heartbeat_interval <= 0) {
        return "scheduler.kernel.raft.heartbeat_interval must be positive";
    }
    if (raft.election_timeout_min <= 0) {
        return "scheduler.kernel.raft.election_timeout_min must be positive";
    }
    if (raft.election_timeout_max < raft.election_timeout_min) {
        return "scheduler.kernel.raft.election_timeout_max must be >= "
               "election_timeout_min";
    }
    if (config.scheduler.kernel.proposal_retry <= 0) {
        return "scheduler.kernel.proposal_retry must be positive";
    }
    if (config.scheduler.migration_retry <= 0) {
        return "scheduler.migration_retry must be positive";
    }
    if (config.scheduler.chaos.enabled && config.fast_mode) {
        return "chaos requires the discrete-event prototype engine; the "
               "fast analytic engine has no network or replicas to break";
    }
    return {};
}

}  // namespace nbos::core
