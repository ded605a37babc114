/**
 * @file
 * Pull-based session streams: the injection interface shared by the
 * workload-profile generators, the streaming trace reader, and the two
 * NotebookOS engines' windowed drivers.
 *
 * A SessionSource yields complete SessionSpecs one at a time in
 * increasing (start_time, id) order, so month-scale traces can be
 * generated, serialized, and simulated without ever materializing a full
 * workload::Trace in memory.
 */
#ifndef NBOS_WORKLOAD_SESSION_SOURCE_HPP
#define NBOS_WORKLOAD_SESSION_SOURCE_HPP

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "workload/trace.hpp"

namespace nbos::workload {

/** A stream of sessions in increasing (start_time, id) order (the
 *  windowed driver rejects a session that is not above its predecessor). */
class SessionSource
{
  public:
    virtual ~SessionSource() = default;

    /** Name the resulting trace/results carry. */
    virtual const std::string& trace_name() const = 0;

    /** Trace makespan: every session starts strictly before it. */
    virtual sim::Time makespan() const = 0;

    /** Produce the next session into @p out.
     *  @return false when the stream is exhausted (@p out untouched). */
    virtual bool next(SessionSpec& out) = 0;
};

/** Adapter streaming an already-materialized trace, session by session:
 *  the bridge that runs a trace through the engines' windowed drivers.
 *  Sessions are copied out in (start_time, id) order whatever their order
 *  in the trace; a trace already in that order (generated traces are) is
 *  streamed as stored, without an index. */
class TraceSessionSource final : public SessionSource
{
  public:
    explicit TraceSessionSource(const Trace& trace) : trace_(trace)
    {
        const auto before = [&trace](std::size_t a, std::size_t b) {
            const SessionSpec& x = trace.sessions[a];
            const SessionSpec& y = trace.sessions[b];
            return x.start_time != y.start_time ? x.start_time < y.start_time
                                                : x.id < y.id;
        };
        for (std::size_t i = 1; i < trace.sessions.size(); ++i) {
            if (before(i, i - 1)) {
                order_.resize(trace.sessions.size());
                std::iota(order_.begin(), order_.end(), std::size_t{0});
                std::stable_sort(order_.begin(), order_.end(), before);
                break;
            }
        }
    }

    const std::string& trace_name() const override { return trace_.name; }
    sim::Time makespan() const override { return trace_.makespan; }

    bool next(SessionSpec& out) override
    {
        if (next_ >= trace_.sessions.size()) {
            return false;
        }
        const std::size_t index = order_.empty() ? next_ : order_[next_];
        ++next_;
        out = trace_.sessions[index];
        return true;
    }

  private:
    const Trace& trace_;
    /** Storage indices in stream order; empty when the trace is sorted. */
    std::vector<std::size_t> order_;
    std::size_t next_ = 0;
};

}  // namespace nbos::workload

#endif  // NBOS_WORKLOAD_SESSION_SOURCE_HPP
