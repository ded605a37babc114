#include "workload/trace_io.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <utility>

#include "nblang/catalog.hpp"

namespace nbos::workload {

TraceParseError::TraceParseError(std::string source, std::size_t line,
                                 std::string field,
                                 const std::string& detail)
    : std::runtime_error(source + ":" + std::to_string(line) + ": field '" +
                         field + "': " + detail),
      source_(std::move(source)),
      line_(line),
      field_(std::move(field))
{
}

namespace {

constexpr const char* kMagic = "#nbos-trace-v1";

/** Every comma-separated field of @p line, a trailing empty one too:
 *  "T,0,5,12," is five fields with an empty `is_gpu`, not four. */
std::vector<std::string>
split_csv(const std::string& line)
{
    std::vector<std::string> fields;
    std::size_t begin = 0;
    for (;;) {
        const std::size_t comma = line.find(',', begin);
        fields.push_back(line.substr(begin, comma - begin));
        if (comma == std::string::npos) {
            return fields;
        }
        begin = comma + 1;
    }
}

/** Parse position of one row, threaded through the field parsers so every
 *  failure reports source/line/field. */
struct ParseContext
{
    const std::string& source;
    std::size_t line = 0;

    [[noreturn]] void fail(const char* field,
                           const std::string& detail) const
    {
        throw TraceParseError(source, line, field, detail);
    }
};

std::int64_t
parse_i64(const ParseContext& ctx, const char* field, const std::string& raw)
{
    try {
        std::size_t consumed = 0;
        const std::int64_t value = std::stoll(raw, &consumed);
        if (consumed != raw.size()) {
            ctx.fail(field, "trailing garbage in '" + raw + "'");
        }
        return value;
    } catch (const std::invalid_argument&) {
        ctx.fail(field, "not a number: '" + raw + "'");
    } catch (const std::out_of_range&) {
        ctx.fail(field, "out of range: '" + raw + "'");
    }
}

std::uint64_t
parse_u64(const ParseContext& ctx, const char* field, const std::string& raw)
{
    // std::stoull silently wraps negative input ("-1" -> 2^64-1, with
    // leading whitespace skipped); a minus sign is never valid in these
    // unsigned count fields, so reject it anywhere in the token and name
    // the offending field instead of failing later with a count mismatch.
    if (raw.find('-') != std::string::npos) {
        ctx.fail(field, "negative count: '" + raw + "'");
    }
    try {
        std::size_t consumed = 0;
        const std::uint64_t value = std::stoull(raw, &consumed);
        if (consumed != raw.size()) {
            ctx.fail(field, "trailing garbage in '" + raw + "'");
        }
        return value;
    } catch (const std::invalid_argument&) {
        ctx.fail(field, "not a number: '" + raw + "'");
    } catch (const std::out_of_range&) {
        ctx.fail(field, "out of range: '" + raw + "'");
    }
}

/** An integer field that must lie in [@p lo, @p hi]. The bounds reject
 *  what no trace can mean (a negative resource amount or duration, an
 *  unknown domain, an end before the start): the engines would otherwise
 *  place, run or strand such a session without a word. */
template <typename T>
T
parse_int(const ParseContext& ctx, const char* field, const std::string& raw,
          T lo = std::numeric_limits<T>::min(),
          T hi = std::numeric_limits<T>::max())
{
    const std::int64_t value = parse_i64(ctx, field, raw);
    if (value < lo || value > hi) {
        ctx.fail(field, "out of range [" + std::to_string(lo) + ", " +
                            std::to_string(hi) + "]: '" + raw + "'");
    }
    return static_cast<T>(value);
}

/** A finite, non-negative real field: std::stod also accepts "nan" and
 *  "inf", and a session asking for NaN GB of VRAM fits no server. */
double
parse_amount(const ParseContext& ctx, const char* field,
             const std::string& raw)
{
    try {
        std::size_t consumed = 0;
        const double value = std::stod(raw, &consumed);
        if (consumed != raw.size()) {
            ctx.fail(field, "trailing garbage in '" + raw + "'");
        }
        if (!std::isfinite(value) || value < 0.0) {
            ctx.fail(field, "not a finite amount >= 0: '" + raw + "'");
        }
        return value;
    } catch (const std::invalid_argument&) {
        ctx.fail(field, "not a number: '" + raw + "'");
    } catch (const std::out_of_range&) {
        ctx.fail(field, "out of range: '" + raw + "'");
    }
}

}  // namespace

TraceWriter::TraceWriter(std::ostream& out, const std::string& name,
                         sim::Time makespan, std::uint64_t session_count)
    : out_(out), expected_(session_count)
{
    out_ << kMagic << "," << name << "," << makespan << "," << session_count
         << "\n";
}

void
TraceWriter::write_session(const SessionSpec& session)
{
    if (written_ == expected_) {
        throw std::logic_error(
            "TraceWriter: session written past the declared count of " +
            std::to_string(expected_));
    }
    ++written_;
    out_ << "S," << session.id << "," << session.start_time << ","
         << session.end_time << "," << session.resources.millicpus << ","
         << session.resources.memory_mb << "," << session.resources.gpus
         << "," << session.resources.vram_gb << ","
         << static_cast<int>(session.domain) << "," << session.model << ","
         << session.dataset << "," << session.tasks.size() << "\n";
    for (const CellTask& task : session.tasks) {
        out_ << "T," << task.seq << "," << task.submit_time << ","
             << task.duration << "," << (task.is_gpu ? 1 : 0) << "\n";
    }
}

void
TraceWriter::finish()
{
    if (written_ != expected_) {
        throw std::logic_error(
            "TraceWriter: wrote " + std::to_string(written_) +
            " sessions but the header declared " +
            std::to_string(expected_));
    }
}

TraceReader::TraceReader(std::istream& in, std::string source_name)
    : in_(in), source_(std::move(source_name))
{
    std::string line;
    if (!std::getline(in_, line)) {
        const ParseContext ctx{source_, 0};
        ctx.fail("header", "empty trace stream");
    }
    line_ = 1;
    const ParseContext ctx{source_, line_};
    const auto header = split_csv(line);
    if (header.size() < 4 || header[0] != kMagic) {
        ctx.fail("header", "bad trace header: " + line);
    }
    name_ = header[1];
    makespan_ = parse_int<sim::Time>(ctx, "makespan", header[2], 0);
    session_count_ = parse_u64(ctx, "session_count", header[3]);
}

bool
TraceReader::next(SessionSpec& out)
{
    if (done_) {
        return false;
    }
    std::string line;
    while (std::getline(in_, line)) {
        ++line_;
        if (line.empty()) {
            continue;
        }
        const ParseContext ctx{source_, line_};
        const auto fields = split_csv(line);
        if (fields[0] == "S") {
            if (fields.size() != 12) {
                ctx.fail("session_row", "bad session row: " + line);
            }
            if (has_current_ && current_.tasks.size() != expected_tasks_) {
                ctx.fail("task_count", "task count mismatch in session " +
                                           std::to_string(current_.id));
            }
            SessionSpec session;
            session.id = parse_i64(ctx, "session_id", fields[1]);
            session.start_time = parse_i64(ctx, "start_time", fields[2]);
            // Both engines stop injecting at the makespan, so such a
            // session would never run.
            if (session.start_time >= makespan_) {
                ctx.fail("start_time", "at or after the makespan " +
                                           std::to_string(makespan_) +
                                           ": '" + fields[2] + "'");
            }
            session.end_time = parse_int<sim::Time>(
                ctx, "end_time", fields[3], session.start_time);
            session.resources.millicpus =
                parse_int<std::int32_t>(ctx, "millicpus", fields[4], 0);
            session.resources.memory_mb =
                parse_int<std::int64_t>(ctx, "memory_mb", fields[5], 0);
            session.resources.gpus =
                parse_int<std::int32_t>(ctx, "gpus", fields[6], 0);
            session.resources.vram_gb =
                parse_amount(ctx, "vram_gb", fields[7]);
            session.domain = static_cast<nblang::Domain>(
                parse_int<std::int32_t>(
                    ctx, "domain", fields[8], 0,
                    static_cast<std::int32_t>(
                        nblang::Domain::kSpeechRecognition)));
            session.model = fields[9];
            session.dataset = fields[10];
            expected_tasks_ = parse_u64(ctx, "task_count", fields[11]);
            if (has_current_) {
                out = std::move(current_);
                current_ = std::move(session);
                ++emitted_;
                return true;
            }
            current_ = std::move(session);
            has_current_ = true;
        } else if (fields[0] == "T") {
            if (!has_current_ || fields.size() != 5) {
                ctx.fail("task_row", "orphan/bad task row: " + line);
            }
            // A cell is its session's next one: its seq is its position
            // (the program is derived from it), and it is submitted in
            // submit order within the session's lifetime.
            const std::size_t position = current_.tasks.size();
            const sim::Time earliest =
                current_.tasks.empty() ? current_.start_time
                                       : current_.tasks.back().submit_time;
            CellTask task;
            task.session = current_.id;
            task.seq = parse_int<std::int32_t>(ctx, "seq", fields[1], 0);
            if (static_cast<std::size_t>(task.seq) != position) {
                ctx.fail("seq", "not the cell's position " +
                                    std::to_string(position) + ": '" +
                                    fields[1] + "'");
            }
            task.submit_time = parse_int<sim::Time>(
                ctx, "submit_time", fields[2], earliest, current_.end_time);
            task.duration =
                parse_int<sim::Time>(ctx, "duration", fields[3], 0);
            if (fields[4] != "0" && fields[4] != "1") {
                ctx.fail("is_gpu", "not 0 or 1: '" + fields[4] + "'");
            }
            task.is_gpu = fields[4] == "1";
            current_.tasks.push_back(std::move(task));
        } else {
            ctx.fail("row_type", "unknown row type: " + line);
        }
    }
    // End of stream: flush the final session (after its task-count check),
    // then verify the tally against the header — the same check order, at
    // the same line numbers, as the historical one-shot parser.
    const ParseContext ctx{source_, line_};
    if (has_current_) {
        if (current_.tasks.size() != expected_tasks_) {
            ctx.fail("task_count", "task count mismatch in final session");
        }
        has_current_ = false;
        ++emitted_;
        out = std::move(current_);
        current_ = SessionSpec{};
        return true;
    }
    done_ = true;
    if (emitted_ != session_count_) {
        ctx.fail("session_count", "session count mismatch");
    }
    return false;
}

void
save_trace(const Trace& trace, std::ostream& out)
{
    TraceWriter writer(out, trace.name, trace.makespan,
                       trace.sessions.size());
    for (const SessionSpec& session : trace.sessions) {
        writer.write_session(session);
    }
    writer.finish();
}

bool
save_trace_file(const Trace& trace, const std::string& path)
{
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    save_trace(trace, out);
    return static_cast<bool>(out);
}

Trace
load_trace(std::istream& in, const std::string& source_name)
{
    TraceReader reader(in, source_name);
    Trace trace;
    trace.name = reader.name();
    trace.makespan = reader.makespan();
    // Reserve is only a hint: cap it so a malformed huge count surfaces as
    // the final "session count mismatch" TraceParseError instead of
    // length_error/bad_alloc from the allocator.
    constexpr std::uint64_t kReserveCap = 1u << 20;
    trace.sessions.reserve(std::min(reader.session_count(), kReserveCap));
    SessionSpec session;
    while (reader.next(session)) {
        trace.sessions.push_back(std::move(session));
    }
    return trace;
}

Trace
load_trace_file(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("cannot open trace file: " + path);
    }
    return load_trace(in, path);
}

}  // namespace nbos::workload
