#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/engine.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace e2e {

using namespace nbos;

namespace {

/** splitmix64, as in the scale_sessions bench. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** The scale_sessions shape: @p count sessions over a 24-hour day, each
 *  alive 15 minutes with three staggered cells (GPU, CPU, GPU). Start
 *  times are a hash of (seed, id), so arrivals are uniform for any seed. */
workload::Trace
scale_trace(std::int64_t count, std::uint64_t seed)
{
    workload::Trace trace;
    trace.name = "scale-" + std::to_string(count);
    trace.makespan = 24 * sim::kHour;
    const sim::Time lifetime = 15 * sim::kMinute;
    const auto window = static_cast<std::uint64_t>(trace.makespan - lifetime);
    const std::uint64_t salt = mix64(seed);
    trace.sessions.reserve(static_cast<std::size_t>(count));
    for (std::int64_t id = 0; id < count; ++id) {
        workload::SessionSpec session;
        session.id = id;
        session.start_time = static_cast<sim::Time>(
            mix64(salt ^ static_cast<std::uint64_t>(id)) % window);
        session.end_time = session.start_time + lifetime;
        session.resources = cluster::ResourceSpec{4000, 16384, 1, 16.0};
        session.model = "scale";
        session.dataset = "synthetic";
        const struct
        {
            sim::Time offset;
            sim::Time duration;
            bool gpu;
        } cells[] = {
            {60 * sim::kSecond, 90 * sim::kSecond, true},
            {5 * sim::kMinute, 30 * sim::kSecond, false},
            {10 * sim::kMinute, 120 * sim::kSecond, true},
        };
        std::int32_t seq = 0;
        for (const auto& cell : cells) {
            workload::CellTask task;
            task.session = id;
            task.seq = seq++;
            task.submit_time = session.start_time + cell.offset;
            task.duration = cell.duration;
            task.is_gpu = cell.gpu;
            session.tasks.push_back(std::move(task));
        }
        trace.sessions.push_back(std::move(session));
    }
    return trace;
}

workload::GeneratorOptions
flash_options(Size size)
{
    workload::GeneratorOptions options;
    options.makespan = 24 * sim::kHour;
    options.max_sessions = size == Size::kFull ? 30000 : 600;
    options.arrival_rate_scale = size == Size::kFull ? 60.0 : 4.0;
    return options;
}

workload::Trace
excerpt_trace(std::uint64_t seed, Size size)
{
    workload::WorkloadGenerator generator{sim::Rng(seed)};
    if (size == Size::kFull) {
        return generator.adobe_excerpt_17_5h();
    }
    workload::GeneratorOptions options;
    options.makespan = 90 * sim::kMinute;
    options.max_sessions = 12;
    options.sessions_survive_trace = true;
    return generator.generate(workload::TraceProfile::adobe(), options);
}

}  // namespace

void
InputSummary::add(const workload::SessionSpec& session)
{
    ++sessions;
    cells += session.tasks.size();
    const sim::Time start = std::max<sim::Time>(session.start_time, 0);
    const sim::Time end = std::min(session.end_time, makespan);
    if (end > start) {
        reservation_gpu_hours += sim::to_seconds(end - start) / 3600.0 *
                                 static_cast<double>(session.resources.gpus);
    }
    session_deltas.emplace_back(session.start_time, 1.0);
    session_deltas.emplace_back(session.end_time, -1.0);
}

bool
CountingSource::next(workload::SessionSpec& out)
{
    const ScopedSpan span(tracer_, "workload.next");
    if (!inner_->next(out)) {
        return false;
    }
    summary_.add(out);
    return true;
}

const std::vector<Workload>&
workloads()
{
    static const std::vector<Workload> kWorkloads = {
        {"fast_scale", /*fixed_fleet=*/true, /*streamed=*/false,
         /*canonical=*/false},
        {"fast_flash", /*fixed_fleet=*/false, /*streamed=*/true,
         /*canonical=*/false},
        {"proto_excerpt", /*fixed_fleet=*/false, /*streamed=*/false,
         /*canonical=*/true},
    };
    return kWorkloads;
}

const Workload*
find_workload(const std::string& name)
{
    for (const Workload& workload : workloads()) {
        if (workload.name == name) {
            return &workload;
        }
    }
    return nullptr;
}

std::unique_ptr<workload::SessionSource>
open_flash_stream(std::uint64_t seed, Size size)
{
    return workload::ProfileRegistry::instance()
        .create(workload::kProfileFlashCrowd)
        ->open(seed, flash_options(size));
}

Input
build_input(const Workload& workload, std::uint64_t seed, Size size,
            Tracer* tracer)
{
    const ScopedSpan span(tracer, "workload.build");
    Input input;
    input.seed =
        workload.canonical && size == Size::kFull ? kDefaultSeed : seed;
    seed = input.seed;
    if (workload.name == "fast_scale") {
        input.trace = scale_trace(size == Size::kFull ? 100000 : 2000, seed);
    } else if (workload.name == "fast_flash") {
        input.source = std::make_unique<CountingSource>(
            open_flash_stream(seed, size), tracer);
    } else if (workload.name == "proto_excerpt") {
        input.trace = excerpt_trace(seed, size);
    } else {
        throw std::invalid_argument("unknown workload " + workload.name);
    }
    return input;
}

core::RunRequest
make_request(const Workload& workload, const Input& input)
{
    core::RunRequest request;
    request.config = core::PlatformConfig::prototype_defaults();
    request.seed = input.seed;
    request.trace = input.trace ? &*input.trace : nullptr;
    request.source = input.source.get();
    if (workload.name == "fast_scale") {
        // The scale_sessions fleet: fixed at sessions/500 servers (at
        // least 64), so SR stays below the watermark and nothing aborts or
        // scales; host time is placement.
        request.engine = core::kEngineFast;
        const auto sessions =
            static_cast<std::int64_t>(input.trace->sessions.size());
        request.config.scheduler.initial_servers = static_cast<std::int32_t>(
            std::max<std::int64_t>(64, (sessions / 500 + 7) / 8 * 8));
        request.config.scheduler.enable_autoscaler = false;
        request.shards = 1;
        request.routing = sched::RoutingPolicyKind::kStaticHash;
    } else if (workload.name == "fast_flash") {
        request.engine = core::kEngineFast;
        request.shards = 2;
        request.routing = sched::RoutingPolicyKind::kRebalance;
        request.config.scheduler.shard_parallel = true;
    } else {
        request.engine = core::kEnginePrototype;
        request.shards = 1;
    }
    return request;
}

InputSummary
summarize(const Input& input)
{
    if (!input.trace) {
        return input.source->summary();
    }
    InputSummary summary;
    summary.makespan = input.trace->makespan;
    for (const workload::SessionSpec& session : input.trace->sessions) {
        summary.add(session);
    }
    return summary;
}

Counts
count_input(const Workload& workload, std::uint64_t seed, Size size)
{
    Input input = build_input(workload, seed, size, nullptr);
    if (input.source) {
        workload::SessionSpec session;
        while (input.source->next(session)) {
        }
    }
    const InputSummary summary = summarize(input);
    return {summary.sessions, summary.cells};
}

CheckSpec
check_spec(const Workload& workload, const Counts& expected,
           const InputSummary& built)
{
    CheckSpec spec;
    spec.input = expected;
    spec.fixed_fleet = workload.fixed_fleet;
    if (workload.streamed) {
        spec.pulled = Counts{built.sessions, built.cells};
    }
    return spec;
}

}  // namespace e2e
