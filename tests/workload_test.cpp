/**
 * @file
 * Tests for the workload generator: trace structure invariants and the
 * calibration of the synthetic distributions against the paper's published
 * percentiles (§2.3).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include "nblang/interpreter.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_io.hpp"

namespace nbos::workload {
namespace {

Trace
small_adobe_trace(std::uint64_t seed = 11)
{
    WorkloadGenerator generator{sim::Rng(seed)};
    GeneratorOptions options;
    options.makespan = 12 * sim::kHour;
    options.max_sessions = 40;
    options.sessions_survive_trace = true;
    return generator.generate(TraceProfile::adobe(), options);
}

TEST(TraceStructureTest, SessionsHaveMonotoneTaskTimes)
{
    const Trace trace = small_adobe_trace();
    ASSERT_FALSE(trace.sessions.empty());
    for (const SessionSpec& session : trace.sessions) {
        for (std::size_t i = 1; i < session.tasks.size(); ++i) {
            EXPECT_GT(session.tasks[i].submit_time,
                      session.tasks[i - 1].submit_time);
        }
    }
}

TEST(TraceStructureTest, TasksNeverConcurrentWithinSession)
{
    // §2.3.2: users do not submit concurrent tasks.
    const Trace trace = small_adobe_trace();
    for (const SessionSpec& session : trace.sessions) {
        for (std::size_t i = 1; i < session.tasks.size(); ++i) {
            EXPECT_GE(session.tasks[i].submit_time,
                      session.tasks[i - 1].submit_time +
                          session.tasks[i - 1].duration);
        }
    }
}

TEST(TraceStructureTest, TasksWithinSessionWindow)
{
    const Trace trace = small_adobe_trace();
    for (const SessionSpec& session : trace.sessions) {
        EXPECT_GE(session.start_time, 0);
        EXPECT_LE(session.start_time, session.end_time);
        for (const CellTask& task : session.tasks) {
            EXPECT_GE(task.submit_time, session.start_time);
            EXPECT_LT(task.submit_time, session.end_time);
        }
    }
}

TEST(TraceStructureTest, SequenceNumbersAreDense)
{
    const Trace trace = small_adobe_trace();
    for (const SessionSpec& session : trace.sessions) {
        for (std::size_t i = 0; i < session.tasks.size(); ++i) {
            EXPECT_EQ(session.tasks[i].seq, static_cast<std::int32_t>(i));
            EXPECT_EQ(session.tasks[i].session, session.id);
        }
    }
}

TEST(TraceStructureTest, TasksBySubmitTimeSorted)
{
    const Trace trace = small_adobe_trace();
    const auto tasks = trace.tasks_by_submit_time();
    EXPECT_EQ(tasks.size(), trace.task_count());
    for (std::size_t i = 1; i < tasks.size(); ++i) {
        EXPECT_LE(tasks[i - 1]->submit_time, tasks[i]->submit_time);
    }
}

TEST(TraceStructureTest, ResourcesAreValidGpuCounts)
{
    const Trace trace = small_adobe_trace();
    for (const SessionSpec& session : trace.sessions) {
        const auto gpus = session.resources.gpus;
        EXPECT_TRUE(gpus == 1 || gpus == 2 || gpus == 4 || gpus == 8)
            << gpus;
        EXPECT_EQ(session.resources.millicpus, 4000 * gpus);
    }
}

TEST(TraceStructureTest, ModelAndDatasetFromSameDomain)
{
    const Trace trace = small_adobe_trace();
    for (const SessionSpec& session : trace.sessions) {
        const auto model = nblang::find_model(session.model);
        const auto dataset = nblang::find_dataset(session.dataset);
        ASSERT_TRUE(model.has_value());
        ASSERT_TRUE(dataset.has_value());
        EXPECT_EQ(model->domain, session.domain);
        EXPECT_EQ(dataset->domain, session.domain);
    }
}

TEST(TraceStructureTest, DeterministicForEqualSeeds)
{
    const Trace a = small_adobe_trace(123);
    const Trace b = small_adobe_trace(123);
    ASSERT_EQ(a.sessions.size(), b.sessions.size());
    ASSERT_EQ(a.task_count(), b.task_count());
    for (std::size_t i = 0; i < a.sessions.size(); ++i) {
        EXPECT_EQ(a.sessions[i].start_time, b.sessions[i].start_time);
        EXPECT_EQ(a.sessions[i].model, b.sessions[i].model);
    }
}

TEST(TraceStructureTest, DifferentSeedsDiffer)
{
    const Trace a = small_adobe_trace(1);
    const Trace b = small_adobe_trace(2);
    EXPECT_NE(a.task_count(), b.task_count());
}

TEST(TraceCodeTest, GeneratedCodeExecutes)
{
    const Trace trace = small_adobe_trace();
    ASSERT_FALSE(trace.sessions.empty());
    const SessionSpec& session = trace.sessions.front();
    nblang::Namespace ns;
    for (const CellTask& task : session.tasks) {
        const std::string code = cell_code(session, task);
        const nblang::Effect effect = nblang::execute_source(code, ns);
        if (task.is_gpu) {
            EXPECT_TRUE(effect.used_gpu()) << code;
            // The NbLang GPU time matches the trace-assigned duration.
            EXPECT_NEAR(effect.gpu_seconds, sim::to_seconds(task.duration),
                        0.01)
                << code;
        }
    }
    // Session state accumulated across cells.
    EXPECT_TRUE(ns.count("model"));
    EXPECT_TRUE(ns.count("weights"));
    EXPECT_DOUBLE_EQ(
        ns["step"].number,
        static_cast<double>(session.tasks.size() - 1));
}

TEST(TraceCodeTest, LargeAndSmallStateBothPresent)
{
    const Trace trace = small_adobe_trace();
    const SessionSpec& session = trace.sessions.front();
    nblang::Namespace ns;
    for (const CellTask& task : session.tasks) {
        nblang::execute_source(cell_code(session, task), ns);
    }
    // "weights" is a large tensor (data-store path); "loss_*" are small
    // numbers (Raft SMR path).
    EXPECT_GT(ns["weights"].size_bytes, 10ULL * 1024 * 1024);
    EXPECT_TRUE(ns.count("loss_1"));
    EXPECT_LT(ns["loss_1"].size_bytes, 1024u);
}

/** The program text is pinned: the prototype executes it, so a change to
 *  it moves every prototype figure. */
TEST(TraceCodeTest, CellCodeTextIsPinned)
{
    SessionSpec session;
    session.id = 4;
    session.model = "gpt2";  // 548 MB of parameters
    session.dataset = "cola";
    session.resources.gpus = 1;  // VRAM min(16 GB, 548 MB + 2 GB)
    CellTask task;
    task.session = session.id;
    task.duration = 120 * sim::kSecond;
    EXPECT_EQ(cell_code(session, task),
              "model = load_model(\"gpt2\")\n"
              "data = load_dataset(\"cola\")\n"
              "step = 0\n"
              "loss_0 = 1.000\n"
              "gpu_compute(120.000, vram_mb=2596.000)\n"
              "weights = tensor(548.000)\n");
    task.seq = 1;
    task.duration = sim::from_seconds(90.5);
    EXPECT_EQ(cell_code(session, task),
              "step = step + 1\n"
              "loss_1 = 0.500\n"
              "gpu_compute(90.500, vram_mb=2596.000)\n"
              "weights = tensor(548.000)\n");
    task.seq = 3;  // every seventh cell from seq 3 reads the last weights
    task.duration = 15 * sim::kSecond;
    EXPECT_EQ(cell_code(session, task),
              "step = step + 1\n"
              "loss_3 = 0.250\n"
              "gpu_compute(15.000, vram_mb=2596.000)\n"
              "weights = weights + tensor(548.000)\n");
    task.seq = 2;
    task.is_gpu = false;
    task.duration = sim::from_seconds(30.25);
    EXPECT_EQ(cell_code(session, task),
              "note_2 = \"edit\"\n"
              "cpu_compute(30.250)\n");
}

TEST(CalibrationTest, AdobeDurationPercentiles)
{
    WorkloadGenerator generator{sim::Rng(42)};
    GeneratorOptions options;
    options.makespan = 40 * sim::kHour;
    options.max_sessions = 300;
    options.sessions_survive_trace = true;
    const Trace trace =
        generator.generate(TraceProfile::adobe(), options);
    const auto durations = trace.durations_seconds();
    ASSERT_GT(durations.count(), 2000u);
    // §2.3.1: p50 = 120 s. (Loose bands: synthetic fit, not the raw trace.)
    EXPECT_NEAR(durations.percentile(50), 120.0, 30.0);
    // 75% complete within ~5 minutes (Observation 1).
    EXPECT_LT(durations.percentile(75), 500.0);
    // 90% within ~17 min.
    EXPECT_LT(durations.percentile(90), 25.0 * 60.0);
}

TEST(CalibrationTest, AdobeIatPercentiles)
{
    WorkloadGenerator generator{sim::Rng(43)};
    GeneratorOptions options;
    options.makespan = 40 * sim::kHour;
    options.max_sessions = 300;
    options.sessions_survive_trace = true;
    const Trace trace =
        generator.generate(TraceProfile::adobe(), options);
    const auto iats = trace.iats_seconds();
    ASSERT_GT(iats.count(), 1000u);
    // §2.3.2: p50 = 300 s, min = 240 s.
    EXPECT_GE(iats.min(), 240.0);
    EXPECT_NEAR(iats.percentile(50), 300.0, 90.0);
}

TEST(CalibrationTest, TraceMediansOrderedLikeFig2)
{
    // Fig. 2(a): Adobe tasks are much shorter than Philly/Alibaba.
    // Fig. 2(b): Adobe IATs are much longer than Philly/Alibaba.
    WorkloadGenerator generator{sim::Rng(44)};
    GeneratorOptions options;
    options.makespan = 30 * sim::kHour;
    options.max_sessions = 150;
    options.sessions_survive_trace = true;
    const Trace adobe = generator.generate(TraceProfile::adobe(), options);
    const Trace philly =
        generator.generate(TraceProfile::philly(), options);
    const Trace alibaba =
        generator.generate(TraceProfile::alibaba(), options);
    EXPECT_LT(adobe.durations_seconds().percentile(50),
              philly.durations_seconds().percentile(50));
    EXPECT_LT(philly.durations_seconds().percentile(50),
              alibaba.durations_seconds().percentile(50));
    EXPECT_GT(adobe.iats_seconds().percentile(50),
              5 * philly.iats_seconds().percentile(50));
    EXPECT_GT(adobe.iats_seconds().percentile(50),
              5 * alibaba.iats_seconds().percentile(50));
}

TEST(CalibrationTest, SessionsAreMostlyIdle)
{
    // Observation 3: sessions use GPUs a small fraction of their lifetime.
    WorkloadGenerator generator{sim::Rng(45)};
    const Trace trace = generator.adobe_excerpt_17_5h();
    const auto busy = trace.session_busy_fractions();
    ASSERT_GT(busy.count(), 50u);
    EXPECT_LT(busy.percentile(50), 0.5);
    EXPECT_LT(busy.mean(), 0.5);
}

TEST(ExcerptTest, SeventeenPointFiveHourShape)
{
    WorkloadGenerator generator{sim::Rng(46)};
    const Trace trace = generator.adobe_excerpt_17_5h();
    EXPECT_EQ(trace.makespan, 17 * sim::kHour + 30 * sim::kMinute);
    // Fig. 7: up to ~90 sessions, none ending within the excerpt.
    EXPECT_LE(trace.sessions.size(), 90u);
    EXPECT_GE(trace.sessions.size(), 60u);
    for (const SessionSpec& session : trace.sessions) {
        EXPECT_EQ(session.end_time, trace.makespan);
    }
    EXPECT_GT(trace.task_count(), 500u);
}

TEST(SummerTest, NinetyDayShape)
{
    WorkloadGenerator generator{sim::Rng(47)};
    const Trace trace = generator.adobe_summer_90d();
    EXPECT_EQ(trace.makespan, 90 * sim::kDay);
    EXPECT_GT(trace.sessions.size(), 200u);
    // Sessions end within the trace (idle reclamation studies need ends).
    std::size_t ended_early = 0;
    for (const SessionSpec& session : trace.sessions) {
        if (session.end_time < trace.makespan) {
            ++ended_early;
        }
    }
    EXPECT_GT(ended_early, trace.sessions.size() / 2);
}

TEST(TraceIoTest, RoundTripPreservesEverything)
{
    const Trace original = small_adobe_trace(77);
    std::stringstream buffer;
    save_trace(original, buffer);
    const Trace loaded = load_trace(buffer);

    EXPECT_EQ(loaded.name, original.name);
    EXPECT_EQ(loaded.makespan, original.makespan);
    ASSERT_EQ(loaded.sessions.size(), original.sessions.size());
    for (std::size_t i = 0; i < original.sessions.size(); ++i) {
        const SessionSpec& a = original.sessions[i];
        const SessionSpec& b = loaded.sessions[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.start_time, b.start_time);
        EXPECT_EQ(a.end_time, b.end_time);
        EXPECT_EQ(a.resources, b.resources);
        EXPECT_EQ(a.model, b.model);
        EXPECT_EQ(a.dataset, b.dataset);
        ASSERT_EQ(a.tasks.size(), b.tasks.size());
        for (std::size_t j = 0; j < a.tasks.size(); ++j) {
            EXPECT_EQ(a.tasks[j].submit_time, b.tasks[j].submit_time);
            EXPECT_EQ(a.tasks[j].duration, b.tasks[j].duration);
            EXPECT_EQ(a.tasks[j].is_gpu, b.tasks[j].is_gpu);
            // The program is derived from what the trace stores, and
            // loading does not build it.
            EXPECT_TRUE(b.tasks[j].code.empty());
            EXPECT_EQ(cell_code(a, a.tasks[j]), cell_code(b, b.tasks[j]))
                << "session " << i << " task " << j;
        }
    }
}

TEST(TraceIoTest, LoadedTraceHasSameStatistics)
{
    const Trace original = small_adobe_trace(78);
    std::stringstream buffer;
    save_trace(original, buffer);
    const Trace loaded = load_trace(buffer);
    EXPECT_DOUBLE_EQ(loaded.durations_seconds().percentile(50),
                     original.durations_seconds().percentile(50));
    EXPECT_DOUBLE_EQ(loaded.iats_seconds().percentile(90),
                     original.iats_seconds().percentile(90));
}

TEST(TraceIoTest, EmptyStreamThrows)
{
    std::stringstream buffer;
    EXPECT_THROW(load_trace(buffer), std::runtime_error);
}

TEST(TraceIoTest, BadHeaderThrows)
{
    std::stringstream buffer("#not-a-trace,x,1,0\n");
    EXPECT_THROW(load_trace(buffer), std::runtime_error);
}

TEST(TraceIoTest, OrphanTaskRowThrows)
{
    std::stringstream buffer;
    buffer << "#nbos-trace-v1,adobe,1000,0\n";
    buffer << "T,0,1,2,1\n";
    EXPECT_THROW(load_trace(buffer), std::runtime_error);
}

TEST(TraceIoTest, SessionCountMismatchThrows)
{
    std::stringstream buffer;
    buffer << "#nbos-trace-v1,adobe,1000,2\n";
    EXPECT_THROW(load_trace(buffer), std::runtime_error);
}

TEST(TraceIoTest, GarbageNumericFieldReportsLocation)
{
    std::stringstream buffer;
    buffer << "#nbos-trace-v1,adobe,1000,1\n";
    buffer << "S,1,xyz,900,1000,2048,1,16,0,gpt2,wikitext,0\n";
    try {
        load_trace(buffer, "unit.csv");
        FAIL() << "expected TraceParseError";
    } catch (const TraceParseError& e) {
        EXPECT_EQ(e.source(), "unit.csv");
        EXPECT_EQ(e.line(), 2u);
        EXPECT_EQ(e.field(), "start_time");
        EXPECT_NE(std::string(e.what()).find("unit.csv:2"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("xyz"), std::string::npos);
    }
}

TEST(TraceIoTest, OutOfRangeNumericFieldThrowsParseError)
{
    // memory_mb far beyond int64 must not escape as a raw
    // std::out_of_range from std::stoll. The other rows parse as values
    // that no trace can mean: loaded, the engines would strand the session
    // (a NaN or infinite VRAM size fits no server), run it anyway, or run
    // something else (an is_gpu of "x" was a CPU cell; a cell out of its
    // session's order or lifetime ran a program derived for another seq,
    // or was refused).
    struct Case
    {
        const char* rows;
        const char* field;
        std::size_t line;
        const char* header = "#nbos-trace-v1,adobe,1000,1\n";
    };
    const Case cases[] = {
        {"S,1,0,900,1000,99999999999999999999999999,1,16,0,gpt2,wikitext,0\n",
         "memory_mb", 2},
        {"S,1,0,900,1000,2048,1,nan,0,gpt2,wikitext,0\n", "vram_gb", 2},
        {"S,1,0,900,1000,2048,1,inf,0,gpt2,wikitext,0\n", "vram_gb", 2},
        {"S,1,0,900,1000,2048,1,-inf,0,gpt2,wikitext,0\n", "vram_gb", 2},
        {"S,1,0,900,1000,2048,1,-0.5,0,gpt2,wikitext,0\n", "vram_gb", 2},
        {"S,1,0,900,-1000,2048,1,16,0,gpt2,wikitext,0\n", "millicpus", 2},
        {"S,1,0,900,1000,-2048,1,16,0,gpt2,wikitext,0\n", "memory_mb", 2},
        {"S,1,0,900,1000,2048,-1,16,0,gpt2,wikitext,0\n", "gpus", 2},
        {"S,1,0,900,1000,2048,1,16,9,gpt2,wikitext,0\n", "domain", 2},
        {"S,1,0,900,1000,2048,1,16,-1,gpt2,wikitext,0\n", "domain", 2},
        {"S,1,900,0,1000,2048,1,16,0,gpt2,wikitext,0\n", "end_time", 2},
        {"S,1,0,900,1000,2048,1,16,0,gpt2,wikitext,1\nT,0,5,-5000000000,1\n",
         "duration", 3},
        {"S,1,0,900,1000,2048,1,16,0,gpt2,wikitext,1\nT,0,5,10,x\n",
         "is_gpu", 3},
        {"S,1,0,900,1000,2048,1,16,0,gpt2,wikitext,1\nT,0,5,10,2\n",
         "is_gpu", 3},
        {"S,1,0,900,1000,2048,1,16,0,gpt2,wikitext,1\nT,0,5,10,true\n",
         "is_gpu", 3},
        {"S,1,0,900,1000,2048,1,16,0,gpt2,wikitext,1\nT,0,5,10,\n",
         "is_gpu", 3},
        {"S,1,0,900,1000,2048,1,16,0,gpt2,wikitext,1\nT,1,5,10,1\n",
         "seq", 3},
        {"S,1,0,900,1000,2048,1,16,0,gpt2,wikitext,2\nT,0,5,10,1\n"
         "T,0,6,10,1\n",
         "seq", 4},
        {"S,1,0,900,1000,2048,1,16,0,gpt2,wikitext,2\nT,0,50,10,1\n"
         "T,1,40,10,1\n",
         "submit_time", 4},
        {"S,1,100,900,1000,2048,1,16,0,gpt2,wikitext,1\nT,0,50,10,1\n",
         "submit_time", 3},
        {"S,1,0,900,1000,2048,1,16,0,gpt2,wikitext,1\nT,0,901,10,1\n",
         "submit_time", 3},
        {"S,1,1000,1900,1000,2048,1,16,0,gpt2,wikitext,0\n", "start_time",
         2},
        {"", "makespan", 1, "#nbos-trace-v1,adobe,-1,0\n"},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.rows);
        std::stringstream buffer;
        buffer << c.header << c.rows;
        try {
            load_trace(buffer);
            FAIL() << "expected TraceParseError";
        } catch (const TraceParseError& e) {
            EXPECT_EQ(e.field(), c.field);
            EXPECT_EQ(e.line(), c.line);
        }
    }
    // Every bound is inclusive: zero resources, the last domain, a
    // session starting just before the makespan and ending as it starts,
    // two cells at that one instant and a zero-length cell all load, and
    // so does an empty trace of zero makespan.
    std::stringstream edge;
    edge << "#nbos-trace-v1,adobe,1000,1\n"
         << "S,1,999,999,0,0,0,0,2,deepspeech2,librispeech,2\n"
         << "T,0,999,0,0\nT,1,999,0,1\n";
    const Trace loaded = load_trace(edge);
    ASSERT_EQ(loaded.task_count(), 2u);
    EXPECT_EQ(loaded.sessions[0].domain, nblang::Domain::kSpeechRecognition);
    EXPECT_FALSE(loaded.sessions[0].tasks[0].is_gpu);
    EXPECT_TRUE(loaded.sessions[0].tasks[1].is_gpu);
    std::stringstream empty("#nbos-trace-v1,adobe,0,0\n");
    EXPECT_TRUE(load_trace(empty).sessions.empty());
}

TEST(TraceIoTest, TruncatedSessionRowThrowsParseError)
{
    std::stringstream buffer;
    buffer << "#nbos-trace-v1,adobe,1000,1\n";
    buffer << "S,1,0,900\n";
    try {
        load_trace(buffer);
        FAIL() << "expected TraceParseError";
    } catch (const TraceParseError& e) {
        EXPECT_EQ(e.field(), "session_row");
        EXPECT_EQ(e.line(), 2u);
    }
}

TEST(TraceIoTest, GarbageTaskFieldReportsLocation)
{
    std::stringstream buffer;
    buffer << "#nbos-trace-v1,adobe,1000,1\n";
    buffer << "S,1,0,900,1000,2048,1,16,0,gpt2,wikitext,1\n";
    buffer << "T,0,5,12oops,1\n";
    try {
        load_trace(buffer);
        FAIL() << "expected TraceParseError";
    } catch (const TraceParseError& e) {
        EXPECT_EQ(e.field(), "duration");
        EXPECT_EQ(e.line(), 3u);
    }
}

TEST(TraceIoTest, AbsurdSessionCountThrowsParseErrorNotBadAlloc)
{
    // The header count is attacker/corruption-controlled; it must not be
    // fed raw into vector::reserve (length_error/bad_alloc would escape
    // the TraceParseError contract).
    std::stringstream buffer;
    buffer << "#nbos-trace-v1,adobe,1000,18446744073709551615\n";
    try {
        load_trace(buffer);
        FAIL() << "expected TraceParseError";
    } catch (const TraceParseError& e) {
        EXPECT_EQ(e.field(), "session_count");
    }
}

TEST(TraceIoTest, NegativeCountReportsOffendingField)
{
    // std::stoull would wrap "-1" to 2^64-1 (skipping leading whitespace);
    // the parser must name the field instead of failing later with a
    // misleading count mismatch.
    for (const char* count : {"-1", " -1"}) {
        std::stringstream buffer;
        buffer << "#nbos-trace-v1,adobe,1000," << count << "\n";
        try {
            load_trace(buffer);
            FAIL() << "expected TraceParseError for '" << count << "'";
        } catch (const TraceParseError& e) {
            EXPECT_EQ(e.field(), "session_count");
            EXPECT_EQ(e.line(), 1u);
        }
    }
}

TEST(TraceIoTest, GarbageHeaderCountThrowsParseError)
{
    std::stringstream buffer("#nbos-trace-v1,adobe,1000,many\n");
    try {
        load_trace(buffer);
        FAIL() << "expected TraceParseError";
    } catch (const TraceParseError& e) {
        EXPECT_EQ(e.field(), "session_count");
        EXPECT_EQ(e.line(), 1u);
    }
}

TEST(TraceIoTest, MalformedFileReportsPathInError)
{
    const std::string path = "/tmp/nbos_trace_io_malformed.csv";
    {
        std::ofstream out(path);
        out << "#nbos-trace-v1,adobe,bogus,0\n";
    }
    try {
        load_trace_file(path);
        FAIL() << "expected TraceParseError";
    } catch (const TraceParseError& e) {
        EXPECT_EQ(e.source(), path);
        EXPECT_EQ(e.field(), "makespan");
    }
}

TEST(TraceIoTest, FileRoundTrip)
{
    const Trace original = small_adobe_trace(79);
    const std::string path = "/tmp/nbos_trace_io_test.csv";
    ASSERT_TRUE(save_trace_file(original, path));
    const Trace loaded = load_trace_file(path);
    EXPECT_EQ(loaded.task_count(), original.task_count());
    EXPECT_THROW(load_trace_file("/nonexistent/trace.csv"),
                 std::runtime_error);
}

/** Property: every profile produces structurally valid traces. */
class ProfileProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ProfileProperty, StructurallyValid)
{
    TraceProfile profile;
    switch (GetParam()) {
      case 0:
        profile = TraceProfile::adobe();
        break;
      case 1:
        profile = TraceProfile::philly();
        break;
      default:
        profile = TraceProfile::alibaba();
        break;
    }
    WorkloadGenerator generator{sim::Rng(100 + GetParam())};
    GeneratorOptions options;
    options.makespan = 6 * sim::kHour;
    options.max_sessions = 30;
    const Trace trace = generator.generate(profile, options);
    EXPECT_FALSE(trace.sessions.empty());
    for (const SessionSpec& session : trace.sessions) {
        for (const CellTask& task : session.tasks) {
            EXPECT_GT(task.duration, 0);
            // Generation stores no program; the prototype derives it.
            EXPECT_TRUE(task.code.empty());
            EXPECT_FALSE(cell_code(session, task).empty());
        }
    }
    // And the reader, which rejects every cell out of its session's order
    // or lifetime, loads it back whole.
    std::stringstream buffer;
    save_trace(trace, buffer);
    EXPECT_EQ(load_trace(buffer).task_count(), trace.task_count());
}

INSTANTIATE_TEST_SUITE_P(Profiles, ProfileProperty,
                         ::testing::Values(0, 1, 2));

TEST(ProfileRegistryTest, BuiltinsRegisteredAndLookupsResolve)
{
    ProfileRegistry& registry = ProfileRegistry::instance();
    for (const char* name :
         {kProfileAdobe, kProfilePhilly, kProfileAlibaba, kProfileDiurnal,
          kProfileFlashCrowd, kProfileHeavyTail, kProfileMultiTenant,
          kProfileBatchInteractive}) {
        EXPECT_TRUE(registry.contains(name)) << name;
        const auto profile = registry.create(name);
        ASSERT_NE(profile, nullptr) << name;
        EXPECT_EQ(profile->name(), name);
        EXPECT_FALSE(profile->description().empty()) << name;
        EXPECT_GE(profile->tenant_count(), 1u) << name;
    }
    EXPECT_FALSE(registry.contains("no_such_profile"));
    EXPECT_EQ(registry.create("no_such_profile"), nullptr);
    const std::vector<std::string> names = registry.names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(ProfileRegistryTest, RegisterRejectsDuplicatesAndEmptyFactories)
{
    ProfileRegistry& registry = ProfileRegistry::instance();
    EXPECT_FALSE(registry.register_profile(kProfileAdobe, [] {
        return ProfileRegistry::instance().create(kProfilePhilly);
    }));
    EXPECT_FALSE(
        registry.register_profile("empty_factory", ProfileRegistry::Factory{}));
    EXPECT_FALSE(registry.contains("empty_factory"));
}

TEST(TraceWriterTest, CountMismatchesThrowLogicError)
{
    const Trace trace = small_adobe_trace(80);
    ASSERT_GE(trace.sessions.size(), 2u);
    std::stringstream buffer;
    TraceWriter writer(buffer, trace.name, trace.makespan, 1);
    writer.write_session(trace.sessions[0]);
    EXPECT_EQ(writer.written(), 1u);
    EXPECT_THROW(writer.write_session(trace.sessions[1]), std::logic_error);
    EXPECT_NO_THROW(writer.finish());

    std::stringstream undercount;
    TraceWriter short_writer(undercount, trace.name, trace.makespan, 2);
    short_writer.write_session(trace.sessions[0]);
    EXPECT_THROW(short_writer.finish(), std::logic_error);
}

TEST(TraceIoTest, TraceStreamSourceStreamsExactlyTheLoadedSessions)
{
    const Trace original = small_adobe_trace(81);
    std::stringstream buffer;
    save_trace(original, buffer);
    TraceStreamSource source(buffer);
    EXPECT_EQ(source.trace_name(), original.name);
    EXPECT_EQ(source.makespan(), original.makespan);
    EXPECT_EQ(source.reader().session_count(), original.sessions.size());
    std::size_t index = 0;
    SessionSpec session;
    while (source.next(session)) {
        ASSERT_LT(index, original.sessions.size());
        EXPECT_EQ(session.id, original.sessions[index].id);
        EXPECT_EQ(session.start_time, original.sessions[index].start_time);
        EXPECT_EQ(session.tasks.size(), original.sessions[index].tasks.size());
        ++index;
    }
    EXPECT_EQ(index, original.sessions.size());
    EXPECT_FALSE(source.next(session));
}

/** Round-trip fuzz corpus: a random trace from every registered profile
 *  must survive save -> stream-load -> save byte-identically. */
TEST(TraceIoFuzzTest, ProfileTracesSurviveStreamRoundTripByteIdentically)
{
    const ProfileRegistry& registry = ProfileRegistry::instance();
    for (const std::string& name : registry.names()) {
        SCOPED_TRACE(name);
        const auto profile = registry.create(name);
        ASSERT_NE(profile, nullptr);
        for (const std::uint64_t seed : {3u, 17u}) {
            GeneratorOptions options;
            options.makespan = 3 * sim::kHour;
            options.max_sessions = 12;
            const Trace trace = profile->generate(seed, options);
            std::stringstream first;
            save_trace(trace, first);
            std::stringstream copy(first.str());
            const Trace loaded = load_trace(copy);
            std::stringstream second;
            save_trace(loaded, second);
            EXPECT_EQ(first.str(), second.str()) << "seed " << seed;
        }
    }
}

/** Truncation fuzz: a trace cut at any random byte offset must either
 *  raise a TraceParseError naming source/line/field, or — only when the
 *  cut removes nothing but the final newline — parse to the full trace.
 *  Silent truncation is the failure mode this pins out. */
TEST(TraceIoFuzzTest, TruncatedInputsAlwaysRaiseStructuredErrors)
{
    const Trace trace = small_adobe_trace(82);
    std::stringstream buffer;
    save_trace(trace, buffer);
    const std::string bytes = buffer.str();
    ASSERT_GT(bytes.size(), 100u);
    sim::Rng rng(2024);
    for (int i = 0; i < 64; ++i) {
        const auto cut = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(bytes.size()) - 1));
        SCOPED_TRACE("cut=" + std::to_string(cut));
        std::stringstream truncated(bytes.substr(0, cut));
        try {
            const Trace loaded = load_trace(truncated);
            // Only losing the trailing newline may parse — and then it
            // must reproduce the complete trace.
            EXPECT_GE(cut, bytes.size() - 1);
            std::stringstream reserialized;
            save_trace(loaded, reserialized);
            EXPECT_EQ(reserialized.str(), bytes);
        } catch (const TraceParseError& error) {
            EXPECT_EQ(error.source(), "<stream>");
            EXPECT_FALSE(error.field().empty());
            EXPECT_NE(std::string(error.what()).find("<stream>"),
                      std::string::npos);
        }
    }
}

/** Byte-mutation fuzz: flipping any single byte to a random printable
 *  character either raises TraceParseError or parses cleanly (digit ->
 *  digit flips are legitimate) — never a crash and never an exception
 *  without parse context. */
TEST(TraceIoFuzzTest, MutatedInputsThrowParseErrorsNotCrashes)
{
    const Trace trace = small_adobe_trace(83);
    std::stringstream buffer;
    save_trace(trace, buffer);
    const std::string bytes = buffer.str();
    sim::Rng rng(4096);
    for (int i = 0; i < 128; ++i) {
        std::string mutated = bytes;
        const auto position = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(bytes.size()) - 1));
        mutated[position] =
            static_cast<char>('!' + rng.uniform_int(0, 93));
        SCOPED_TRACE("byte " + std::to_string(position) + " -> '" +
                     std::string(1, mutated[position]) + "'");
        std::stringstream in(mutated);
        try {
            const Trace loaded = load_trace(in);
            (void)loaded;
        } catch (const TraceParseError& error) {
            EXPECT_FALSE(error.field().empty());
            EXPECT_FALSE(std::string(error.what()).empty());
        }
        // Any other exception type escapes and fails the test.
    }
}

}  // namespace
}  // namespace nbos::workload
