/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span covers one call the benchmark makes into a layer (input building,
 * SessionSource::next, core::run). Spans nest through an open-span stack,
 * carry the id of the measured repetition they belong to, and are written
 * out once, after the measurement ends. A span's self time is its duration
 * minus the part of it that its child spans cover.
 */
#ifndef NBOS_E2EBENCH_SPANS_HPP
#define NBOS_E2EBENCH_SPANS_HPP

#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace e2e {

/** One closed (or still open) span; times are steady_clock nanoseconds. */
struct Span
{
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /** Index of the enclosing span, -1 at top level. */
    std::int32_t parent = -1;
    /** Measured repetition the span belongs to. */
    std::int32_t run = 0;

    double seconds() const
    {
        return static_cast<double>(end_ns - start_ns) * 1e-9;
    }
};

/** Single-threaded span recorder (every instrumented call is made from
 *  the benchmark's own thread). Span names must be string literals. */
class Tracer
{
  public:
    static std::int64_t now_ns()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    void set_run(std::int32_t run) { run_ = run; }

    /** Open a span nested in the innermost open one; returns its id. */
    std::int32_t begin(const char* name)
    {
        const auto id = static_cast<std::int32_t>(spans_.size());
        spans_.push_back(Span{name, now_ns(), 0,
                              open_.empty() ? -1 : open_.back(), run_});
        open_.push_back(id);
        return id;
    }

    /** Close span @p id, which must be the innermost open span. */
    void end(std::int32_t id)
    {
        spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
        open_.pop_back();
    }

    const std::vector<Span>& spans() const { return spans_; }

    /** Summed duration of every span named @p name in repetition @p run
     *  (names compare by content). */
    double total_seconds(const char* name, std::int32_t run) const;

    /** Duration of span @p id minus the union of its children's intervals
     *  (clipped to the span). */
    double self_seconds(std::int32_t id) const;

    /** Tab-separated dump: run, id, parent, name, start_ns, end_ns. */
    void write(std::ostream& out) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;
    std::int32_t run_ = 0;
};

/** RAII span; a null tracer records nothing (the untraced runs). */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer* tracer, const char* name)
        : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_ != nullptr) {
            tracer_->end(id_);
        }
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    std::int32_t id() const { return id_; }

  private:
    Tracer* tracer_;
    std::int32_t id_;
};

}  // namespace e2e

#endif  // NBOS_E2EBENCH_SPANS_HPP
