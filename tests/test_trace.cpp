// Signal tracing (the FPGA monitoring framework's software twin) and its
// integration with the coprocessor.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/coprocessor.hpp"
#include "runtime/runtime.hpp"
#include "sim/trace.hpp"
#include "workloads/benchmarks.hpp"

namespace hwgc {
namespace {

TEST(SignalTrace, DisabledTraceRecordsNothing) {
  SignalTrace trace;
  const auto sig = trace.register_signal("x");
  trace.sample(1, sig, 42);
  EXPECT_TRUE(trace.events().empty());
}

TEST(SignalTrace, RecordsInOrderWhenEnabled) {
  SignalTrace trace;
  const auto a = trace.register_signal("a");
  const auto b = trace.register_signal("b");
  trace.enable();
  trace.sample(5, a, 1);
  trace.sample(6, b, 2);
  trace.sample(9, a, 3);
  ASSERT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.events()[0].cycle, 5u);
  EXPECT_EQ(trace.events()[2].value, 3u);
  EXPECT_EQ(trace.signal_names()[b], "b");
}

TEST(SignalTrace, BoundedRingDropsOldest) {
  SignalTrace trace;
  const auto sig = trace.register_signal("s");
  trace.enable(/*max_events=*/4);
  for (Cycle t = 0; t < 10; ++t) trace.sample(t, sig, t);
  ASSERT_EQ(trace.events().size(), 4u);
  EXPECT_EQ(trace.events().front().cycle, 6u);
  EXPECT_EQ(trace.events().back().cycle, 9u);
}

TEST(SignalTrace, NoteRingKeepsTheLastTextsAndReleasesPoppedOnes) {
  SignalTrace trace;
  trace.enable(/*max_events=*/4);
  trace.note(0, "fault: first");
  trace.note(1, "crit: busy x", 7);
  trace.note(2, "crit: idle x", 3);
  trace.note(3, "fault: second");
  trace.note(4, "crit: busy x", 12);
  trace.note(5, "recovery: done");
  ASSERT_EQ(trace.notes().size(), 4u);
  std::vector<std::string> texts;
  for (const TraceNote& n : trace.notes()) texts.push_back(trace.note_text(n));
  EXPECT_EQ(texts, (std::vector<std::string>{"crit: idle x3", "fault: second",
                                             "crit: busy x12",
                                             "recovery: done"}));
  EXPECT_EQ(trace.notes().front().cycle, 2u);
  // "fault: first" is gone; "crit: busy x" is still carried by cycle 4.
  EXPECT_EQ(trace.note_texts(), 4u);

  // Numbered notes under one new prefix push every other text out.
  for (Cycle t = 6; t < 10; ++t) trace.note(t, "crit: scan x", t);
  EXPECT_EQ(trace.note_texts(), 1u);
  EXPECT_EQ(trace.note_text(trace.notes().back()), "crit: scan x9");
  trace.note(10, "plain");
  trace.note(11, "crit: max x", ~std::uint64_t{0});
  EXPECT_EQ(trace.note_texts(), 3u);
  EXPECT_EQ(trace.note_text(trace.notes().back()),
            "crit: max x18446744073709551615");
  trace.clear();
  EXPECT_EQ(trace.note_texts(), 0u);
}

TEST(SignalTrace, WritesCsv) {
  SignalTrace trace;
  const auto sig = trace.register_signal("scan");
  trace.enable();
  trace.sample(1, sig, 100);
  trace.sample(2, sig, 105);
  const std::string path = ::testing::TempDir() + "/hwgc_trace_test.csv";
  ASSERT_TRUE(trace.write_csv(path));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "cycle,signal,value,note");
  std::getline(in, line);
  EXPECT_EQ(line, "1,scan,100,");
  std::remove(path.c_str());
}

TEST(SignalTrace, CsvMergesNotesByCycleAndQuotes) {
  SignalTrace trace;
  const auto sig = trace.register_signal("scan");
  trace.enable();
  trace.sample(1, sig, 100);
  trace.note(1, "fault, \"hard\"");
  trace.note(3, "abort");
  trace.sample(5, sig, 105);
  const std::string path = ::testing::TempDir() + "/hwgc_trace_notes.csv";
  ASSERT_TRUE(trace.write_csv(path));
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[0], "cycle,signal,value,note");
  EXPECT_EQ(lines[1], "1,scan,100,");
  EXPECT_EQ(lines[2], "1,note,,\"fault, \"\"hard\"\"\"");
  EXPECT_EQ(lines[3], "3,note,,\"abort\"");
  EXPECT_EQ(lines[4], "5,scan,105,");
  std::remove(path.c_str());
}

TEST(SignalTrace, VcdEmitsNotesAsComments) {
  SignalTrace trace;
  const auto sig = trace.register_signal("scan");
  trace.enable();
  trace.sample(3, sig, 1);
  trace.note(3, "injected $end of story");
  trace.note(10, "after the last sample");
  const std::string path = ::testing::TempDir() + "/hwgc_trace_notes.vcd";
  ASSERT_TRUE(trace.write_vcd(path));
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  // The embedded "$end" must be broken so it cannot close the comment.
  EXPECT_NE(all.find("$comment injected $ end of story $end"),
            std::string::npos);
  // A note past the final sample still appears, under its own timestamp.
  EXPECT_NE(all.find("#10\n$comment after the last sample $end"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SignalTrace, WritesVcd) {
  SignalTrace trace;
  const auto scan = trace.register_signal("scan");
  const auto busy = trace.register_signal("busy");
  trace.enable();
  trace.sample(3, scan, 0x10);
  trace.sample(3, busy, 1);
  trace.sample(7, scan, 0x18);
  const std::string path = ::testing::TempDir() + "/hwgc_trace_test.vcd";
  ASSERT_TRUE(trace.write_vcd(path));
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("$var wire 64 ! scan $end"), std::string::npos);
  EXPECT_NE(all.find("$var wire 64 \" busy $end"), std::string::npos);
  EXPECT_NE(all.find("#3\n"), std::string::npos);
  EXPECT_NE(all.find("#7\n"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SignalTrace, CoprocessorEmitsScanFreeAndBusySignals) {
  Workload w = make_benchmark(BenchmarkId::kJlisp, 0.02);
  SimConfig cfg;
  cfg.coprocessor.num_cores = 4;
  Coprocessor coproc(cfg, *w.heap);
  SignalTrace trace;
  const GcCycleStats s = coproc.collect(&trace);
  EXPECT_GT(trace.events().size(), 10u);
  // scan and free must both end at the same final value: base + copied.
  std::uint64_t last_scan = 0, last_free = 0;
  for (const auto& e : trace.events()) {
    if (trace.signal_names()[e.signal] == "scan") last_scan = e.value;
    if (trace.signal_names()[e.signal] == "free") last_free = e.value;
  }
  EXPECT_EQ(last_scan, last_free);
  EXPECT_EQ(last_free - w.heap->layout().current_base(), s.words_copied);
}

TEST(SignalTrace, ReusedAcrossCollectionsKeepsFourSignals) {
  // A trace attached to a Runtime sees every collection; the coprocessor's
  // signals must be interned once, not re-registered per collection.
  SimConfig cfg;
  cfg.coprocessor.num_cores = 2;
  Runtime rt(4096, cfg);
  SignalTrace trace;
  rt.set_signal_trace(&trace);
  const Runtime::Ref root = rt.alloc(1, 2);
  for (int i = 0; i < 10; ++i) {
    rt.set_ptr(root, 0, rt.alloc(0, 3));
    rt.collect();
  }
  EXPECT_EQ(trace.signal_names().size(), 4u);
  const std::string path = ::testing::TempDir() + "/hwgc_trace_reuse.vcd";
  ASSERT_TRUE(trace.write_vcd(path));
  std::ifstream in(path);
  std::size_t vars = 0;
  for (std::string line; std::getline(in, line);) {
    vars += line.rfind("$var ", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(vars, 4u);
  std::remove(path.c_str());
}

TEST(SignalTrace, RegisteringPastTheChannelCountThrows) {
  SignalTrace trace;
  for (std::size_t i = 0; i < SignalTrace::kMaxSignals; ++i) {
    EXPECT_EQ(trace.register_signal("s" + std::to_string(i)), i);
  }
  EXPECT_EQ(trace.register_signal("s0"), 0u);  // interned, no new channel
  EXPECT_THROW(trace.register_signal("one-too-many"), std::length_error);
}

TEST(SignalTrace, TracingDoesNotChangeTiming) {
  Workload w1 = make_benchmark(BenchmarkId::kJavacc, 0.02);
  Workload w2 = make_benchmark(BenchmarkId::kJavacc, 0.02);
  SimConfig cfg;
  cfg.coprocessor.num_cores = 8;
  Coprocessor c1(cfg, *w1.heap);
  Coprocessor c2(cfg, *w2.heap);
  SignalTrace trace;
  const Cycle with = c1.collect(&trace).total_cycles;
  const Cycle without = c2.collect().total_cycles;
  EXPECT_EQ(with, without) << "the monitor must be non-intrusive";
}

}  // namespace
}  // namespace hwgc
