#include "core/runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "core/engine_api.hpp"

namespace nbos::core {
namespace {

ExperimentOutcome
run_one(const ExperimentSpec& spec, std::size_t index)
{
    ExperimentOutcome outcome;
    outcome.index = index;
    outcome.engine = spec.engine;
    outcome.label = spec.label.empty() ? spec.engine : spec.label;
    if (spec.trace == nullptr) {
        outcome.error = "spec has no trace";
        return outcome;
    }
    // An empty name is an unknown engine here, not "derive from policy"
    // as in core::run — ExperimentSpec::engine is documented as a
    // registry name and the registry never holds an empty key.
    if (spec.engine.empty()) {
        outcome.error = "unknown engine ''";
        return outcome;
    }
    // The whole pipeline runs inside the try: a throwing user-registered
    // factory must surface as outcome.error, not escape the worker
    // thread (which would std::terminate the process). core::run keeps
    // the historical error strings — an unknown name still reads
    // "unknown engine '<name>'".
    try {
        RunRequest request;
        request.engine = spec.engine;
        request.config = spec.config;
        request.trace = spec.trace;
        request.seed = spec.seed;
        outcome.results = run(request).results;
        outcome.ok = true;
    } catch (const std::exception& error) {
        outcome.error = error.what();
    } catch (...) {
        outcome.error = "unknown exception from engine '" + spec.engine +
                        "'";
    }
    return outcome;
}

}  // namespace

ExperimentRunner::ExperimentRunner(std::size_t threads) : threads_(threads)
{
    if (threads_ == 0) {
        const unsigned hardware = std::thread::hardware_concurrency();
        threads_ = hardware > 0 ? hardware : 1;
    }
}

std::vector<ExperimentOutcome>
ExperimentRunner::run(const std::vector<ExperimentSpec>& specs,
                      const ProgressCallback& on_complete) const
{
    std::vector<ExperimentOutcome> outcomes(specs.size());
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::size_t completed = 0;

    const auto worker = [&] {
        for (;;) {
            const std::size_t index = next.fetch_add(1);
            if (index >= specs.size()) {
                return;
            }
            ExperimentOutcome outcome = run_one(specs[index], index);
            const std::lock_guard<std::mutex> lock(mutex);
            outcomes[index] = std::move(outcome);
            ++completed;
            if (on_complete) {
                on_complete(outcomes[index], completed, specs.size());
            }
        }
    };

    const std::size_t pool = std::min(threads_, specs.size());
    if (pool <= 1) {
        worker();
        return outcomes;
    }
    std::vector<std::thread> threads;
    threads.reserve(pool);
    for (std::size_t i = 0; i < pool; ++i) {
        threads.emplace_back(worker);
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    return outcomes;
}

}  // namespace nbos::core
