/**
 * @file
 * The engine-run API: one request struct and one function, the only
 * public way to execute a workload on any engine.
 *
 * Name an engine (or let the config's (policy, fast_mode) pair pick a
 * built-in one), hand it a materialized trace or a streamed SessionSource,
 * and core::run executes it. The two NotebookOS engines run through their
 * windowed drivers either way (a trace is streamed through a
 * workload::TraceSessionSource); the baseline engines take a trace.
 *
 * Example:
 *
 *   core::RunRequest request;
 *   request.engine = core::kEngineFast;     // or leave empty: derive it
 *   request.config = config;                //   from config.policy and
 *   request.trace = &trace;                 //   config.fast_mode
 *   request.seed = 42;                      // optional overrides
 *   request.shards = 4;
 *
 *   request.trace = nullptr;                // or stream the sessions
 *   request.source = &source;
 *
 *   core::RunResponse response = core::run(request);
 */
#ifndef NBOS_CORE_ENGINE_API_HPP
#define NBOS_CORE_ENGINE_API_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chaos/config.hpp"
#include "core/engine.hpp"
#include "core/platform.hpp"
#include "core/results.hpp"
#include "sched/routing.hpp"
#include "workload/session_source.hpp"
#include "workload/trace.hpp"

namespace nbos::core {

/**
 * Everything one engine run needs. Exactly one of @ref trace / @ref source
 * must be set; neither is owned and both must outlive the run() call.
 *
 * The optional override fields exist so sweep drivers can vary one knob
 * per run without copying and editing nested config structs — when set,
 * they are applied onto a copy of @ref config before anything else.
 */
struct RunRequest
{
    /** EngineRegistry name ("reservation", "notebookos-fast", ...).
     *  Empty derives the built-in engine from the config's
     *  (policy, fast_mode) pair. */
    std::string engine;

    /** Engine knobs. When @ref engine is named, its policy/fast_mode are
     *  overridden from the engine, exactly like the ExperimentRunner. */
    PlatformConfig config{};

    /** Materialized input. */
    const workload::Trace* trace = nullptr;

    /** Streamed input (NotebookOS engines only). */
    workload::SessionSource* source = nullptr;

    /** @name Per-run config overrides (applied first when set) */
    ///@{
    std::optional<std::uint64_t> seed;                  ///< config.seed
    std::optional<std::int32_t> shards;                 ///< scheduler.shards
    std::optional<sched::RoutingPolicyKind> routing;    ///< scheduler.routing
    std::optional<chaos::ChaosConfig> chaos;            ///< scheduler.chaos
    ///@}
};

/**
 * Results of one core::run. Both NotebookOS engines fill the telemetry
 * block; the baseline engines leave it zero/empty.
 */
struct RunResponse
{
    ExperimentResults results;
    /** Simulation events executed across every shard. */
    std::uint64_t events_executed = 0;
    /** Load-index entries examined by every shard's placements: a few
     *  per placement, the whole shard fleet only when one fails. */
    std::uint64_t placement_servers_examined = 0;
    /** Per-shard simulation events, in shard order. */
    std::vector<std::uint64_t> shard_events;
    /** Wall seconds advancing each shard's loop, in shard order. Serial
     *  runs time each shard alone, so the maximum is the critical path. */
    std::vector<double> shard_busy_seconds;
    /** Whole sessions moved across shards (`rebalance` only). */
    std::uint64_t sessions_rebalanced = 0;
};

/**
 * Execute @p request and return the full metric set.
 *
 * Deterministic for a fixed request; a trace and a TraceSessionSource over
 * it give the same results. Thread-safe in the ExperimentRunner sense:
 * every run builds its own engine world.
 *
 * @throws std::invalid_argument when the request is inconsistent: both or
 *         neither of trace/source set, an unknown engine name, a source
 *         for an engine without a windowed driver, a config rejected by
 *         validate_config ("PlatformConfig: ..."), or a source that breaks
 *         its (start_time, id) order or repeats a session id.
 */
RunResponse run(const RunRequest& request);

}  // namespace nbos::core

#endif  // NBOS_CORE_ENGINE_API_HPP
