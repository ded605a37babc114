/**
 * @file
 * The pluggable policy-engine API. Every experiment engine — the three
 * §5.1.1 baselines and both NotebookOS engines — implements PolicyEngine
 * and is resolved by name through the process-wide EngineRegistry, so new
 * engines can be added (and swept by the ExperimentRunner) without
 * touching core::run or the bench binaries.
 */
#ifndef NBOS_CORE_ENGINE_HPP
#define NBOS_CORE_ENGINE_HPP

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/results.hpp"
#include "workload/trace.hpp"

namespace nbos::core {

struct PlatformConfig;

/** Abstract experiment engine: executes one trace under one policy. */
class PolicyEngine
{
  public:
    virtual ~PolicyEngine() = default;

    /** Registry name of this engine (e.g. "notebookos-fast"). */
    virtual std::string name() const = 0;

    /** The §5 policy whose results this engine produces. */
    virtual Policy policy() const = 0;

    /**
     * Execute @p trace under @p config and return the full metric set.
     *
     * Implementations must be deterministic for a fixed (trace, config)
     * pair and must not touch shared mutable state: the ExperimentRunner
     * executes engine runs concurrently, one engine instance per spec.
     */
    virtual ExperimentResults run(const workload::Trace& trace,
                                  const PlatformConfig& config) const = 0;
};

/**
 * Thread-safe name -> factory registry of policy engines.
 *
 * The process-wide instance() comes pre-populated with the built-in
 * engines; callers register additional engines at startup and resolve
 * them by name (see examples/policy_sweep.cpp for a custom engine).
 */
class EngineRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<PolicyEngine>()>;

    /** The process-wide registry, pre-populated with the built-ins. */
    static EngineRegistry& instance();

    /** Register @p factory under @p name.
     *  @return false (and leave the registry unchanged) when @p name is
     *          already taken or @p factory is empty. */
    bool register_engine(const std::string& name, Factory factory);

    /** Instantiate engine @p name, or nullptr when unknown. */
    std::unique_ptr<PolicyEngine> create(const std::string& name) const;

    bool contains(const std::string& name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, Factory> factories_;
};

/** Names of the five built-in engines (always registered). */
inline constexpr const char* kEngineReservation = "reservation";
inline constexpr const char* kEngineBatch = "batch";
inline constexpr const char* kEngineLcp = "notebookos-lcp";
inline constexpr const char* kEnginePrototype = "notebookos";
inline constexpr const char* kEngineFast = "notebookos-fast";

/** Registry name of the built-in engine for (policy, fast_mode). */
const char* engine_name(Policy policy, bool fast_mode = false);

/** Validate @p config for core::run.
 *  @return an empty string when valid, else a human-readable error
 *          (e.g. fast_mode combined with a baseline policy). */
std::string validate_config(const PlatformConfig& config);

}  // namespace nbos::core

#endif  // NBOS_CORE_ENGINE_HPP
