/**
 * @file
 * Trace serialization: save/load synthesized workloads as CSV so
 * experiments can be archived, diffed, and replayed bit-for-bit (the
 * paper's artifact ships its trace as files; this is our equivalent).
 *
 * Format: a header line, one `S` row per session, one `T` row per task.
 * Cell code is neither stored nor rebuilt on load: a cell's program is a
 * pure function of what the rows hold (workload::cell_code), and the
 * prototype engine, the only one that executes cells, derives it when it
 * submits the cell.
 */
#ifndef NBOS_WORKLOAD_TRACE_IO_HPP
#define NBOS_WORKLOAD_TRACE_IO_HPP

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "sim/time.hpp"
#include "workload/session_source.hpp"
#include "workload/trace.hpp"

namespace nbos::workload {

/**
 * Structured parse failure raised by load_trace / load_trace_file.
 *
 * Malformed numeric fields previously escaped as raw std::invalid_argument /
 * std::out_of_range from the std::sto* helpers with no location at all;
 * every malformed input now surfaces as this exception, carrying the source
 * name (file path or "<stream>"), the 1-based line, and the offending field.
 */
class TraceParseError : public std::runtime_error
{
  public:
    TraceParseError(std::string source, std::size_t line, std::string field,
                    const std::string& detail);

    /** File path or "<stream>" for stream input. */
    const std::string& source() const { return source_; }
    /** 1-based line number of the offending row. */
    std::size_t line() const { return line_; }
    /** Name of the field that failed to parse (may be a row description). */
    const std::string& field() const { return field_; }

  private:
    std::string source_;
    std::size_t line_;
    std::string field_;
};

/**
 * Streaming serializer for the nbos-trace-v1 format: the header goes out
 * at construction, sessions one at a time, so month-scale traces can be
 * written with O(one session) memory. save_trace is implemented on top of
 * this writer, so streamed and materialized output are byte-identical.
 *
 * The format pins the session count in the header, so the count must be
 * known up front (generate_trace_stream counts with a first pass);
 * finish() throws std::logic_error when the written count diverges.
 */
class TraceWriter
{
  public:
    /** Write the header row for a trace of exactly @p session_count
     *  sessions. */
    TraceWriter(std::ostream& out, const std::string& name,
                sim::Time makespan, std::uint64_t session_count);

    /** Append one session (its `S` row plus all `T` rows).
     *  @throws std::logic_error past the declared session count. */
    void write_session(const SessionSpec& session);

    /** Sessions written so far. */
    std::uint64_t written() const { return written_; }

    /** Declare the trace complete.
     *  @throws std::logic_error when the written count does not match the
     *          header. */
    void finish();

  private:
    std::ostream& out_;
    std::uint64_t expected_;
    std::uint64_t written_ = 0;
};

/**
 * Streaming parser for the nbos-trace-v1 format: the header is parsed at
 * construction, sessions are pulled one at a time with O(one session)
 * memory. load_trace is implemented on top of this reader, so it accepts
 * and rejects exactly the same inputs with exactly the same
 * TraceParseError source/line/field.
 */
class TraceReader
{
  public:
    /** Parse the header from @p in.
     *  @param source_name label used in parse errors.
     *  @throws TraceParseError on a malformed header or a negative
     *          makespan. */
    explicit TraceReader(std::istream& in,
                         std::string source_name = "<stream>");

    /** Trace name from the header. */
    const std::string& name() const { return name_; }
    /** Trace makespan from the header. */
    sim::Time makespan() const { return makespan_; }
    /** Session count the header declares. */
    std::uint64_t session_count() const { return session_count_; }

    /** Parse the next complete session into @p out.
     *  @return false when the stream is exhausted (@p out untouched).
     *  @throws TraceParseError on malformed rows, values no trace can mean
     *          (a negative resource amount or duration, a VRAM size that
     *          is not finite, an unknown domain, an end_time before the
     *          start_time, an is_gpu other than 0 or 1), rows that
     *          contradict their session or the header (a session starting
     *          at or after the makespan; a cell whose seq is not its
     *          position, or submitted before the previous cell, before its
     *          session's start_time or after its end_time), task-count
     *          mismatches, and a final session tally differing from the
     *          header. */
    bool next(SessionSpec& out);

  private:
    std::istream& in_;
    std::string source_;
    std::size_t line_ = 0;
    std::string name_;
    sim::Time makespan_ = 0;
    std::uint64_t session_count_ = 0;
    std::uint64_t emitted_ = 0;
    SessionSpec current_;
    std::uint64_t expected_tasks_ = 0;
    bool has_current_ = false;
    bool done_ = false;
};

/** SessionSource over a TraceReader: lets the engines' streamed drivers
 *  inject a serialized trace without ever materializing it. */
class TraceStreamSource final : public SessionSource
{
  public:
    explicit TraceStreamSource(std::istream& in,
                               std::string source_name = "<stream>")
        : reader_(in, std::move(source_name))
    {
    }

    const std::string& trace_name() const override { return reader_.name(); }
    sim::Time makespan() const override { return reader_.makespan(); }
    bool next(SessionSpec& out) override { return reader_.next(out); }

    /** The underlying reader (header metadata access). */
    const TraceReader& reader() const { return reader_; }

  private:
    TraceReader reader_;
};

/** Serialize @p trace to @p out (CSV-ish, line oriented). */
void save_trace(const Trace& trace, std::ostream& out);

/** Save to a file. @return false on I/O failure. */
bool save_trace_file(const Trace& trace, const std::string& path);

/**
 * Parse a trace previously written by save_trace.
 * @param source_name label used in parse errors (defaults to "<stream>").
 * @throws TraceParseError on malformed input.
 */
Trace load_trace(std::istream& in,
                 const std::string& source_name = "<stream>");

/** Load from a file. @throws std::runtime_error if unreadable,
 *  TraceParseError (with the path as source) if malformed. */
Trace load_trace_file(const std::string& path);

}  // namespace nbos::workload

#endif  // NBOS_WORKLOAD_TRACE_IO_HPP
