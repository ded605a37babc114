/**
 * @file
 * Run-level chaos configuration: RECORD / REPLAY plumbing and the
 * knobs a `SchedulerConfig` carries to turn fault injection on for a run.
 */
#ifndef NBOS_CHAOS_CONFIG_HPP
#define NBOS_CHAOS_CONFIG_HPP

#include <cstdint>
#include <memory>
#include <mutex>

#include "chaos/fault_plan.hpp"
#include "chaos/generator.hpp"

namespace nbos::chaos {

/**
 * RECORD-mode destination. Each scheduler shard deposits the plan it
 * actually injected (with resolved fire times); the merged `ScheduleFile`
 * can be serialized, saved, and replayed byte-identically. Thread-safe:
 * sharded runs record from each shard's own thread.
 */
class RecordSink
{
  public:
    void put(std::int32_t shard, FaultPlan plan)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        recorded_.shards[shard] = std::move(plan);
    }

    ScheduleFile merged() const
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        return recorded_;
    }

    std::string serialize() const { return serialize_schedule(merged()); }

  private:
    mutable std::mutex mutex_;
    ScheduleFile recorded_;
};

/**
 * Chaos knobs on `SchedulerConfig`. Modes compose from two optional
 * attachments:
 *  - `replay` non-null: REPLAY — each shard installs its section of the
 *    schedule file instead of generating a plan.
 *  - `record` non-null: RECORD — each shard deposits the faults it injected.
 * With neither, the run just generates-and-injects from the seed.
 *
 * Chaos targets the discrete-event prototype engine; the fast analytic
 * engine has no network to break and rejects chaos configs.
 */
struct ChaosConfig
{
    bool enabled = false;

    /** Generator seed; 0 derives a per-shard seed from the engine seed. */
    std::uint64_t seed = 0;

    ChaosOptions options{};

    /** REPLAY source (shared, read-only across shards). */
    std::shared_ptr<const ScheduleFile> replay;

    /** RECORD destination (shared across shards). */
    std::shared_ptr<RecordSink> record;
};

}  // namespace nbos::chaos

#endif  // NBOS_CHAOS_CONFIG_HPP
