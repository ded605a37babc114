/**
 * @file
 * The benchmark's three workloads and the inputs they are built from.
 *
 * Every workload is an open loop in simulated time (sessions arrive on the
 * trace's schedule whatever the platform's state) and a batch job on the
 * host. Each one calls core::run directly. Why each workload was chosen,
 * and which layers it stresses, is recorded in README.md.
 */
#ifndef NBOS_E2EBENCH_WORKLOADS_HPP
#define NBOS_E2EBENCH_WORKLOADS_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "core/engine_api.hpp"
#include "spans.hpp"
#include "workload/session_source.hpp"
#include "workload/trace.hpp"

namespace e2e {

/** Default workload seed, the same as the figure benches' bench::kSeed. */
inline constexpr std::uint64_t kDefaultSeed = 2026;

/** Full is the measured size; tiny is for the checker's self-test. */
enum class Size
{
    kFull,
    kTiny,
};

/** What an input held: counted from the trace, or, for a streamed input,
 *  as the engine pulls it. */
struct InputSummary
{
    std::uint64_t sessions = 0;
    std::uint64_t cells = 0;
    /** Sum over sessions of lifetime (clipped to [0, makespan)) x GPUs. */
    double reservation_gpu_hours = 0.0;
    nbos::sim::Time makespan = 0;
    /** (time, ±1) session start/end deltas, for the active-session series
     *  the billing model needs. */
    std::vector<std::pair<nbos::sim::Time, double>> session_deltas;

    void add(const nbos::workload::SessionSpec& session);
};

/**
 * Forwarding SessionSource owned by the benchmark. It summarizes what the
 * engine pulled and, when a tracer is attached, records one
 * `workload.next` span per call.
 */
class CountingSource final : public nbos::workload::SessionSource
{
  public:
    CountingSource(std::unique_ptr<nbos::workload::SessionSource> inner,
                   Tracer* tracer)
        : inner_(std::move(inner)), tracer_(tracer)
    {
        summary_.makespan = inner_->makespan();
    }

    const std::string& trace_name() const override
    {
        return inner_->trace_name();
    }
    nbos::sim::Time makespan() const override { return inner_->makespan(); }
    bool next(nbos::workload::SessionSpec& out) override;

    const InputSummary& summary() const { return summary_; }

  private:
    std::unique_ptr<nbos::workload::SessionSource> inner_;
    Tracer* tracer_;
    InputSummary summary_;
};

/** One built input: a materialized trace or a streamed source. */
struct Input
{
    /** The seed the input was built at; the engine runs at it too. */
    std::uint64_t seed = 0;
    std::optional<nbos::workload::Trace> trace;
    std::unique_ptr<CountingSource> source;
};

/** A named workload: how to build its input and configure its run. */
struct Workload
{
    std::string name;
    /** The fleet is fixed and never scales (fast_scale). */
    bool fixed_fleet = false;
    /** The input is streamed through a CountingSource (fast_flash). */
    bool streamed = false;
    /** At full size the input and engine seed are kDefaultSeed whatever
     *  seed is asked for (proto_excerpt; README.md says why). */
    bool canonical = false;
};

/** The workloads, in the order BENCHMARK.json lists them. */
const std::vector<Workload>& workloads();

/** Look a workload up by name; nullptr when unknown. */
const Workload* find_workload(const std::string& name);

/** Open the fast_flash stream (the flash_crowd profile) at @p seed. */
std::unique_ptr<nbos::workload::SessionSource> open_flash_stream(
    std::uint64_t seed, Size size);

/** Build @p workload's input for @p seed (same seed, same input). */
Input build_input(const Workload& workload, std::uint64_t seed, Size size,
                  Tracer* tracer);

/** The core::run request for @p input (which must outlive the call). */
nbos::core::RunRequest make_request(const Workload& workload,
                                    const Input& input);

/** Summarize @p input; call after the run for streamed inputs, where it
 *  counts what the engine pulled. */
InputSummary summarize(const Input& input);

/** The sessions and cells @p workload's input at @p seed holds, counted
 *  apart from any run: a streamed input is drained from a source of its
 *  own. */
Counts count_input(const Workload& workload, std::uint64_t seed, Size size);

/** The checks' view of one run: @p expected is what the input holds,
 *  @p built what this run's input summarized to after the run. */
CheckSpec check_spec(const Workload& workload, const Counts& expected,
                     const InputSummary& built);

}  // namespace e2e

#endif  // NBOS_E2EBENCH_WORKLOADS_HPP
