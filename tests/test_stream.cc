// Streaming inference engine: trace streams, watermark-driven window assembly, and the
// windowed StEM estimator.
//
// The load-bearing assertions are bit-exactness ones: the streaming engine must
// reproduce the batch windowed estimator exactly — same windows, same estimates — for
// any sharded-sweep thread count, and the window logs built incrementally from
// TaskRecords must equal the ones the ExtractTaskWindow oracle (support/) builds from
// the batch log.

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/csv_corpora.h"
#include "support/extract_task_window.h"
#include "support/vector_stream.h"
#include "qnet/infer/stem.h"
#include "qnet/model/builders.h"
#include "qnet/obs/observation.h"
#include "qnet/sim/fault.h"
#include "qnet/sim/simulator.h"
#include "qnet/stream/live_stream.h"
#include "qnet/stream/replay_stream.h"
#include "qnet/stream/streaming_estimator.h"
#include "qnet/stream/task_record.h"
#include "qnet/stream/window_assembler.h"
#include "qnet/support/check.h"
#include "qnet/support/rng.h"
#include "qnet/trace/csv.h"

namespace qnet {
namespace {

using qnet_testing::ExtractTaskWindow;

struct Fixture {
  EventLog truth;
  Observation obs;

  Fixture(double fraction = 0.5, std::size_t tasks = 400, std::uint64_t seed = 7)
      : truth(MakeLog(tasks, seed)), obs(MakeObs(truth, fraction, seed)) {}

  static EventLog MakeLog(std::size_t tasks, std::uint64_t seed) {
    const QueueingNetwork net = MakeTandemNetwork(4.0, {8.0, 9.0});
    Rng rng(seed);
    return SimulateWorkload(net, PoissonArrivals(4.0, tasks), rng);
  }
  static Observation MakeObs(const EventLog& log, double fraction, std::uint64_t seed) {
    Rng rng(seed + 1);
    TaskSamplingScheme scheme;
    scheme.fraction = fraction;
    return scheme.Apply(log, rng);
  }
};

void ExpectLogsIdentical(const EventLog& a, const EventLog& b) {
  ASSERT_EQ(a.NumEvents(), b.NumEvents());
  ASSERT_EQ(a.NumTasks(), b.NumTasks());
  ASSERT_EQ(a.NumQueues(), b.NumQueues());
  for (EventId e = 0; static_cast<std::size_t>(e) < a.NumEvents(); ++e) {
    const Event& ea = a.At(e);
    const Event& eb = b.At(e);
    EXPECT_EQ(ea.task, eb.task);
    EXPECT_EQ(ea.state, eb.state);
    EXPECT_EQ(ea.queue, eb.queue);
    EXPECT_EQ(ea.arrival, eb.arrival);      // bitwise: same doubles copied through
    EXPECT_EQ(ea.departure, eb.departure);
    EXPECT_EQ(ea.pi, eb.pi);
    EXPECT_EQ(ea.tau, eb.tau);
    EXPECT_EQ(ea.rho, eb.rho);
    EXPECT_EQ(ea.nu, eb.nu);
    EXPECT_EQ(ea.initial, eb.initial);
  }
}

void ExpectEstimatesIdentical(const std::vector<WindowEstimate>& a,
                              const std::vector<WindowEstimate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t w = 0; w < a.size(); ++w) {
    EXPECT_EQ(a[w].t0, b[w].t0) << "window " << w;
    EXPECT_EQ(a[w].t1, b[w].t1) << "window " << w;
    EXPECT_EQ(a[w].tasks, b[w].tasks) << "window " << w;
    EXPECT_EQ(a[w].merged_tail_tasks, b[w].merged_tail_tasks) << "window " << w;
    EXPECT_EQ(a[w].degraded, b[w].degraded) << "window " << w;
    EXPECT_EQ(a[w].fit_iterations, b[w].fit_iterations) << "window " << w;
    ASSERT_EQ(a[w].rates.size(), b[w].rates.size());
    for (std::size_t q = 0; q < a[w].rates.size(); ++q) {
      EXPECT_EQ(a[w].rates[q], b[w].rates[q]) << "window " << w << " q=" << q;
    }
    ASSERT_EQ(a[w].mean_wait.size(), b[w].mean_wait.size());
    for (std::size_t q = 0; q < a[w].mean_wait.size(); ++q) {
      EXPECT_EQ(a[w].mean_wait[q], b[w].mean_wait[q]) << "window " << w << " q=" << q;
    }
  }
}

// --- WindowLogBuilder ------------------------------------------------------------------

TEST(WindowLogBuilder, MatchesExtractTaskWindow) {
  const Fixture f;
  const std::vector<int> tasks = {3, 4, 5, 6, 10, 11, 40, 41, 42};
  const auto [batch_log, batch_obs] = ExtractTaskWindow(f.truth, f.obs, tasks);

  WindowLogBuilder builder(f.truth.NumQueues());
  for (const int task : tasks) {
    builder.Add(MakeTaskRecord(f.truth, f.obs, task));
  }
  const auto [stream_log, stream_obs] = builder.Finish();

  ExpectLogsIdentical(batch_log, stream_log);
  EXPECT_EQ(batch_obs.arrival_observed, stream_obs.arrival_observed);
  EXPECT_EQ(batch_obs.departure_observed, stream_obs.departure_observed);
  EXPECT_EQ(batch_obs.observed_tasks, stream_obs.observed_tasks);
}

TEST(WindowLogBuilder, IsReusableAcrossWindows) {
  const Fixture f;
  WindowLogBuilder builder(f.truth.NumQueues());
  builder.Add(MakeTaskRecord(f.truth, f.obs, 0));
  builder.Add(MakeTaskRecord(f.truth, f.obs, 1));
  const auto [first_log, first_obs] = builder.Finish();
  EXPECT_EQ(first_log.NumTasks(), 2);

  builder.Add(MakeTaskRecord(f.truth, f.obs, 2));
  const auto [second_log, second_obs] = builder.Finish();
  EXPECT_EQ(second_log.NumTasks(), 1);
  EXPECT_EQ(second_log.TaskEntryTime(0), f.truth.TaskEntryTime(2));
  second_obs.Validate(second_log);
}

// --- ExtractTaskWindow (the batch-windowing oracle) ----------------------------------

TEST(ExtractTaskWindow, PreservesTimesLinksAndFlags) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  Rng rng(3);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 60), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.4;
  const Observation obs = scheme.Apply(truth, rng);

  const std::vector<int> tasks = {10, 11, 12, 13, 14, 20, 21};
  const auto [window, window_obs] = ExtractTaskWindow(truth, obs, tasks);
  EXPECT_EQ(window.NumTasks(), 7);
  std::string why;
  EXPECT_TRUE(window.IsFeasible(1e-9, &why)) << why;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const int wk = static_cast<int>(i);
    EXPECT_DOUBLE_EQ(window.TaskEntryTime(wk), truth.TaskEntryTime(tasks[i]));
    EXPECT_DOUBLE_EQ(window.TaskExitTime(wk), truth.TaskExitTime(tasks[i]));
    // Arrival observation flags carried over per event.
    const auto& old_chain = truth.TaskEvents(tasks[i]);
    const auto& new_chain = window.TaskEvents(wk);
    ASSERT_EQ(old_chain.size(), new_chain.size());
    for (std::size_t j = 1; j < old_chain.size(); ++j) {
      EXPECT_EQ(window_obs.ArrivalObserved(new_chain[j]), obs.ArrivalObserved(old_chain[j]));
    }
  }
  window_obs.Validate(window);
}

TEST(ExtractTaskWindow, SingleTaskWindow) {
  // Boundary invariant: a one-task window is a valid log — initial event anchored at 0,
  // links rebuilt, observation consistent.
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  Rng rng(17);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 30), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.5;
  const Observation obs = scheme.Apply(truth, rng);

  const auto [window, window_obs] = ExtractTaskWindow(truth, obs, {12});
  ASSERT_EQ(window.NumTasks(), 1);
  std::string why;
  EXPECT_TRUE(window.IsFeasible(1e-9, &why)) << why;
  EXPECT_DOUBLE_EQ(window.TaskEntryTime(0), truth.TaskEntryTime(12));
  EXPECT_DOUBLE_EQ(window.TaskExitTime(0), truth.TaskExitTime(12));
  const auto& chain = window.TaskEvents(0);
  ASSERT_EQ(chain.size(), truth.TaskEvents(12).size());
  // With every cross-task neighbor cut away, each event's rho/nu links stay within the
  // task's own queue visits (no dangling ids).
  for (const EventId e : chain) {
    const Event& ev = window.At(e);
    if (ev.rho != kNoEvent) {
      EXPECT_EQ(window.At(ev.rho).task, 0);
    }
    if (ev.nu != kNoEvent) {
      EXPECT_EQ(window.At(ev.nu).task, 0);
    }
  }
  window_obs.Validate(window);
}

TEST(ExtractTaskWindow, RederivesDepartureFlagsAndKeepsFinalOnes) {
  // Departure flags are the same physical measurement as the successor's arrival, so the
  // window re-derives every internal departure flag from its successor arrival flag; only
  // each task's *final* departure flag (nobody's arrival) carries over from the source.
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  Rng rng(19);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 40), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.5;
  scheme.observe_final_departure = false;  // exercises the unobserved-final-exit corner
  const Observation obs = scheme.Apply(truth, rng);

  const std::vector<int> tasks = {5, 6, 7, 20, 21};
  const auto [window, window_obs] = ExtractTaskWindow(truth, obs, tasks);
  for (int wk = 0; wk < window.NumTasks(); ++wk) {
    const auto& chain = window.TaskEvents(wk);
    for (std::size_t i = 1; i < chain.size(); ++i) {
      const Event& ev = window.At(chain[i]);
      EXPECT_EQ(window_obs.DepartureObserved(ev.pi), window_obs.ArrivalObserved(chain[i]))
          << "task " << wk << " step " << i;
    }
    // Final departure: carried from the source, here never observed.
    EXPECT_EQ(window_obs.DepartureObserved(chain.back()),
              obs.DepartureObserved(truth.TaskEvents(tasks[static_cast<std::size_t>(wk)]).back()));
    EXPECT_FALSE(window_obs.DepartureObserved(chain.back()));
  }
  window_obs.Validate(window);
}

TEST(ExtractTaskWindow, ReconstructsObservedTasks) {
  // observed_tasks must be exactly the window-renumbered source observed tasks that made
  // it into the window, in sorted order.
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  Rng rng(23);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 50), rng);
  TaskSamplingScheme scheme;
  const Observation obs = scheme.ApplyToTasks(truth, {2, 3, 9, 30, 31});

  const std::vector<int> tasks = {3, 4, 9, 10, 30};
  const auto [window, window_obs] = ExtractTaskWindow(truth, obs, tasks);
  // Source observed tasks inside the window: 3 -> 0, 9 -> 2, 30 -> 4.
  const std::vector<int> expected = {0, 2, 4};
  EXPECT_EQ(window_obs.observed_tasks, expected);
  for (const int wk : window_obs.observed_tasks) {
    const auto& chain = window.TaskEvents(wk);
    for (std::size_t i = 1; i < chain.size(); ++i) {
      EXPECT_TRUE(window_obs.ArrivalObserved(chain[i]));
    }
  }
}

TEST(ExtractTaskWindow, RejectsUnsortedTasks) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0});
  Rng rng(5);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 10), rng);
  const Observation obs = Observation::FullyObserved(truth);
  EXPECT_THROW(ExtractTaskWindow(truth, obs, {3, 1}), Error);
  EXPECT_THROW(ExtractTaskWindow(truth, obs, {}), Error);
}

// --- Replay streams --------------------------------------------------------------------

TEST(LogReplayStream, YieldsEveryTaskInOrder) {
  const Fixture f(0.5, 50);
  LogReplayStream stream(f.truth, f.obs);
  EXPECT_EQ(stream.NumQueues(), f.truth.NumQueues());
  TaskRecord record;
  int count = 0;
  double last_entry = 0.0;
  while (stream.Next(record)) {
    EXPECT_EQ(record, MakeTaskRecord(f.truth, f.obs, count));
    EXPECT_GE(record.entry_time, last_entry);
    last_entry = record.entry_time;
    ++count;
  }
  EXPECT_EQ(count, f.truth.NumTasks());
}

TEST(CsvReplayStream, MatchesLogReplayExactly) {
  const Fixture f(0.4, 60);
  std::stringstream log_csv;
  std::stringstream obs_csv;
  WriteEventLog(log_csv, f.truth);
  WriteObservation(obs_csv, f.obs);

  // num_queues comes from the '# queues=N' header.
  CsvReplayStream csv_stream(log_csv, -1, &obs_csv);
  EXPECT_EQ(csv_stream.NumQueues(), f.truth.NumQueues());
  LogReplayStream log_stream(f.truth, f.obs);

  TaskRecord from_csv;
  TaskRecord from_log;
  int tasks = 0;
  while (log_stream.Next(from_log)) {
    ASSERT_TRUE(csv_stream.Next(from_csv));
    ASSERT_EQ(from_csv.visits.size(), from_log.visits.size()) << "task " << tasks;
    // Times round-trip exactly (setprecision(17)); arrival flags match. Internal
    // departure flags may differ in representation but are re-derived by the builder.
    EXPECT_EQ(from_csv.entry_time, from_log.entry_time) << "task " << tasks;
    for (std::size_t i = 0; i < from_log.visits.size(); ++i) {
      EXPECT_EQ(from_csv.visits[i].queue, from_log.visits[i].queue);
      EXPECT_EQ(from_csv.visits[i].state, from_log.visits[i].state);
      EXPECT_EQ(from_csv.visits[i].arrival, from_log.visits[i].arrival);
      EXPECT_EQ(from_csv.visits[i].departure, from_log.visits[i].departure);
      EXPECT_EQ(from_csv.visits[i].arrival_observed, from_log.visits[i].arrival_observed);
      EXPECT_EQ(from_csv.visits[i].departure_observed,
                from_log.visits[i].departure_observed);
    }
    ++tasks;
  }
  EXPECT_FALSE(csv_stream.Next(from_csv));
  EXPECT_EQ(tasks, f.truth.NumTasks());
}

TEST(CsvReplayStream, HeaderlessFilesNeedExplicitNumQueues) {
  const Fixture f(1.0, 10);
  std::stringstream with_header;
  WriteEventLog(with_header, f.truth);
  // Strip the '# queues=N' line to simulate a legacy file.
  std::string all = with_header.str();
  const std::string headerless = all.substr(all.find('\n') + 1);

  std::stringstream no_header(headerless);
  EXPECT_THROW(CsvReplayStream(no_header, -1), Error);
  std::stringstream no_header2(headerless);
  CsvReplayStream stream(no_header2, f.truth.NumQueues());
  TaskRecord record;
  EXPECT_TRUE(stream.Next(record));
  EXPECT_EQ(record.entry_time, f.truth.TaskEntryTime(0));

  // A wrong explicit count contradicting the header is rejected.
  std::stringstream with_header2(all);
  EXPECT_THROW(CsvReplayStream(with_header2, f.truth.NumQueues() + 1), Error);
}

// Reads `log_text` (and `obs_text`, if non-empty) through a CsvReplayStream to the end.
std::size_t ReplayAllTasks(const std::string& log_text, const std::string& obs_text = "") {
  std::istringstream log_is(log_text);
  std::istringstream obs_is(obs_text);
  CsvReplayStream stream(log_is, -1, obs_text.empty() ? nullptr : &obs_is);
  TaskRecord record;
  std::size_t tasks = 0;
  while (stream.Next(record)) {
    ++tasks;
  }
  return tasks;
}

// Expects ReplayAllTasks to raise Error whose message quotes `row`.
void ExpectRowRejected(const std::string& log_text, const std::string& row) {
  try {
    ReplayAllTasks(log_text);
    ADD_FAILURE() << "accepted:\n" << log_text;
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find(row), std::string::npos) << error.what();
  }
}

TEST(CsvReplayStream, RejectsImpossibleRecordsAtReadTime) {
  const std::string header = "# queues=3\ntask,state,queue,arrival,departure,initial\n";
  // A valid two-visit task, then each check's violation in a second task.
  const std::string valid = header + "0,-1,0,0,1,1\n0,0,1,1,2,0\n0,1,2,2,3.5,0\n";
  EXPECT_EQ(ReplayAllTasks(valid), 1u);
  // Non-finite entry, arrival and departure times.
  ExpectRowRejected(valid + "1,-1,0,0,inf,1\n1,0,1,inf,inf,0\n", "1,-1,0,0,inf,1");
  ExpectRowRejected(valid + "1,-1,0,0,nan,1\n1,0,1,nan,5,0\n", "1,-1,0,0,nan,1");
  ExpectRowRejected(valid + "1,-1,0,0,4,1\n1,0,1,4,nan,0\n", "1,0,1,4,nan,0");
  ExpectRowRejected(valid + "1,-1,0,0,4,1\n1,0,1,4,-inf,0\n", "1,0,1,4,-inf,0");
  // Departure before arrival.
  ExpectRowRejected(valid + "1,-1,0,0,4,1\n1,0,1,4,3,0\n", "1,0,1,4,3,0");
  // A first visit that does not arrive at the entry time.
  ExpectRowRejected(valid + "1,-1,0,0,4,1\n1,0,1,4.5,5,0\n", "1,0,1,4.5,5,0");
  // A visit that does not arrive when its predecessor departs; within 1e-9 is continuity.
  ExpectRowRejected(valid + "1,-1,0,0,4,1\n1,0,1,4,5,0\n1,1,2,5.25,6,0\n", "1,1,2,5.25,6,0");
  EXPECT_EQ(ReplayAllTasks(valid + "1,-1,0,0,4,1\n1,0,1,4,5,0\n1,1,2,5.0000000001,6,0\n"), 2u);
  // Queue ids outside [1, N): the arrival queue, N, and negative.
  ExpectRowRejected(valid + "1,-1,0,0,4,1\n1,0,0,4,5,0\n", "1,0,0,4,5,0");
  ExpectRowRejected(valid + "1,-1,0,0,4,1\n1,0,3,4,5,0\n", "1,0,3,4,5,0");
  ExpectRowRejected(valid + "1,-1,0,0,4,1\n1,0,-2,4,5,0\n", "1,0,-2,4,5,0");
  // A visit row of another task.
  ExpectRowRejected(valid + "1,-1,0,0,4,1\n0,0,1,4,5,0\n", "0,0,1,4,5,0");
  // Malformed fields of the initial row are rejected too, as ReadEventLog does.
  ExpectRowRejected(valid + "1,x,0,0,4,1\n1,0,1,4,5,0\n", "1,x,0,0,4,1");
  // CRLF rows keep their '\r', which no initial flag or number accepts.
  ExpectRowRejected(header + "0,-1,0,0,1,1\r\n0,0,1,1,2,0\r\n", "0,-1,0,0,1,1");
}

TEST(CsvReplayStream, ReadsRowsSplitAcrossBlankLinesAndAFinalRowWithoutNewline) {
  const Fixture f(0.4, 30);
  std::stringstream log_csv;
  std::stringstream obs_csv;
  WriteEventLog(log_csv, f.truth);
  WriteObservation(obs_csv, f.obs);
  const std::string log_text = log_csv.str();
  std::string obs_text = obs_csv.str();
  // Blank lines after every data row, and no final newline on either file.
  const std::size_t body = log_text.find('\n', log_text.find("task,")) + 1;
  std::string spaced = log_text.substr(0, body);
  for (const char c : log_text.substr(body)) {
    spaced += c;
    if (c == '\n') {
      spaced += "\n\n";
    }
  }
  while (spaced.back() == '\n') {
    spaced.pop_back();
  }
  obs_text.pop_back();
  EXPECT_EQ(ReplayAllTasks(spaced, obs_text), static_cast<std::size_t>(f.truth.NumTasks()));
}

TEST(CsvReplayStream, ByteMutationsThroughTheEstimatorRaiseOnlyQnetErrors) {
  // Seeded single-byte mutations of a log and its observation CSV, replayed through a
  // mean-field StreamingEstimator: every case completes or raises qnet::Error (no other
  // exception, no crash; a hang trips the test timeout).
  const Fixture f(0.4, 32, 41);
  std::ostringstream log_os;
  std::ostringstream obs_os;
  WriteEventLog(log_os, f.truth);
  WriteObservation(obs_os, f.obs);
  const std::string log_text = log_os.str();
  const std::string obs_text = obs_os.str();
  StreamingEstimatorOptions options;
  options.window.window_duration = 2.0;
  options.fast_path = FastPathMode::kMeanFieldOnly;
  const std::vector<double> init = {4.0, 1.0, 1.0};

  Rng rng(43);
  constexpr int kMutations = 20000;
  int completed = 0;
  int rejected = 0;
  std::string log_mutated;
  std::string obs_mutated;
  for (int i = 0; i < kMutations; ++i) {
    log_mutated = log_text;
    obs_mutated = obs_text;
    qnet_testing::MutateOneByte(i % 2 == 0 ? log_mutated : obs_mutated, rng,
                                qnet_testing::kWindowCsvMutationAlphabet);
    try {
      std::istringstream log_is(log_mutated);
      std::istringstream obs_is(obs_mutated);
      CsvReplayStream stream(log_is, -1, &obs_is);
      StreamingEstimator estimator(init, 5, options);
      estimator.Run(stream);
      ++completed;
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "non-qnet exception " << error.what() << " on mutation " << i;
    }
  }
  EXPECT_EQ(completed + rejected, kMutations);
  EXPECT_GT(completed, 0);
  EXPECT_GT(rejected, 0);
}

// --- WindowAssembler -------------------------------------------------------------------

TaskRecord TinyRecord(double entry, double service = 0.01) {
  TaskRecord record;
  record.entry_time = entry;
  TaskVisit visit;
  visit.state = 0;
  visit.queue = 1;
  visit.arrival = entry;
  visit.departure = entry + service;
  record.visits.push_back(visit);
  return record;
}

TEST(WindowAssembler, ClosesWindowsAtWatermarkAndMergesSmallOnes) {
  WindowAssemblerOptions options;
  options.window_duration = 10.0;
  options.min_tasks_per_window = 3;
  WindowAssembler assembler(2, options);

  // Window [0,10): 3 tasks; [10,20): only 2 tasks -> merges into [10,30).
  for (const double t : {1.0, 2.0, 3.0, 11.0, 12.0}) {
    assembler.Push(TinyRecord(t));
  }
  EXPECT_TRUE(assembler.HasClosed());  // [0,10) closed when the 11.0 record arrived
  assembler.Push(TinyRecord(21.0));  // watermark 21 >= 20, but [10,20) has 2 < 3 tasks
  assembler.Push(TinyRecord(25.0));
  assembler.Push(TinyRecord(29.5));
  assembler.Push(TinyRecord(31.0));  // watermark 31 >= 30: closes [10,30) with 5 tasks

  std::vector<ClosedWindow> closed;
  while (assembler.HasClosed()) {
    closed.push_back(assembler.PopClosed());
  }
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(closed[0].t0, 0.0);
  EXPECT_EQ(closed[0].t1, 10.0);
  EXPECT_EQ(closed[0].num_tasks, 3u);
  EXPECT_EQ(closed[1].t0, 10.0);
  EXPECT_EQ(closed[1].t1, 30.0);  // span extended over the too-small [10,20)
  EXPECT_EQ(closed[1].num_tasks, 5u);

  assembler.FinishStream();  // single remaining task (31.0), previous window exists
  ASSERT_TRUE(assembler.HasClosed());
  const ClosedWindow tail = assembler.PopClosed();
  EXPECT_EQ(tail.merged_tail_tasks, 1u);
  EXPECT_EQ(tail.t0, 10.0);  // replaces the previous window, span extended
  EXPECT_EQ(tail.num_tasks, 6u);
  EXPECT_EQ(assembler.Stats().tail_dropped, 0u);
}

TEST(WindowAssembler, FirstWindowClosesOnArrivalPastEnd) {
  WindowAssemblerOptions options;
  options.window_duration = 10.0;
  options.min_tasks_per_window = 2;
  WindowAssembler assembler(2, options);
  assembler.Push(TinyRecord(1.0));
  assembler.Push(TinyRecord(2.0));
  EXPECT_FALSE(assembler.HasClosed());
  assembler.Push(TinyRecord(10.5));
  ASSERT_TRUE(assembler.HasClosed());
  EXPECT_EQ(assembler.PopClosed().num_tasks, 2u);
}

TEST(WindowAssembler, LateRecordPolicies) {
  WindowAssemblerOptions options;
  options.window_duration = 10.0;
  options.min_tasks_per_window = 2;
  options.late_policy = LateRecordPolicy::kDrop;
  {
    WindowAssembler assembler(2, options);
    assembler.Push(TinyRecord(1.0));
    assembler.Push(TinyRecord(2.0));
    assembler.Push(TinyRecord(11.0));  // closes [0,10)
    ASSERT_TRUE(assembler.HasClosed());
    assembler.PopClosed();
    assembler.Push(TinyRecord(5.0));  // late: belongs to the closed [0,10)
    EXPECT_EQ(assembler.Stats().late_dropped, 1u);
    assembler.Push(TinyRecord(12.0));
    assembler.FinishStream();
    ASSERT_TRUE(assembler.HasClosed());
    EXPECT_EQ(assembler.PopClosed().num_tasks, 2u);  // the late record is gone
  }
  options.late_policy = LateRecordPolicy::kMergeIntoCurrent;
  {
    WindowAssembler assembler(2, options);
    assembler.Push(TinyRecord(1.0));
    assembler.Push(TinyRecord(2.0));
    assembler.Push(TinyRecord(11.0));
    assembler.PopClosed();
    assembler.Push(TinyRecord(5.0));  // late: folded into the open [10,...) window
    assembler.Push(TinyRecord(12.0));
    assembler.FinishStream();
    EXPECT_EQ(assembler.Stats().late_dropped, 0u);
    ASSERT_TRUE(assembler.HasClosed());
    const ClosedWindow window = assembler.PopClosed();
    EXPECT_EQ(window.num_tasks, 3u);
    // The late record sorts first within the window's log.
    EXPECT_EQ(window.log.TaskEntryTime(0), 5.0);
  }
}

TEST(WindowAssembler, AllowedLatenessHoldsWindowsOpen) {
  WindowAssemblerOptions options;
  options.window_duration = 10.0;
  options.min_tasks_per_window = 2;
  options.allowed_lateness = 5.0;
  WindowAssembler assembler(2, options);
  assembler.Push(TinyRecord(1.0));
  assembler.Push(TinyRecord(2.0));
  assembler.Push(TinyRecord(11.0));  // watermark 11 - 5 = 6 < 10: stays open
  EXPECT_FALSE(assembler.HasClosed());
  assembler.Push(TinyRecord(9.0));  // within lateness: sorted into [0,10)
  assembler.Push(TinyRecord(16.0));  // watermark 16 - 5 = 11 >= 10: closes
  ASSERT_TRUE(assembler.HasClosed());
  const ClosedWindow window = assembler.PopClosed();
  EXPECT_EQ(window.num_tasks, 3u);
  EXPECT_EQ(window.log.TaskEntryTime(2), 9.0);
  EXPECT_EQ(assembler.Stats().late_dropped, 0u);
}

TEST(WindowAssembler, TailMergesIntoWindowClosedDuringFinish) {
  // Regression: with allowed_lateness > 0 a window's close can be deferred until
  // FinishStream releases the watermark hold-back. The trailing merge must target THAT
  // window — the true last one — not an earlier close retained during Push.
  WindowAssemblerOptions options;
  options.window_duration = 10.0;
  options.min_tasks_per_window = 2;
  options.allowed_lateness = 5.0;
  WindowAssembler assembler(2, options);
  for (const double t : {1.0, 2.0, 11.0, 12.0, 21.0}) {
    assembler.Push(TinyRecord(t));
  }
  // Watermark 21 - 5 = 16: only [0,10) has closed so far.
  assembler.FinishStream();
  std::vector<ClosedWindow> closed;
  while (assembler.HasClosed()) {
    closed.push_back(assembler.PopClosed());
  }
  ASSERT_EQ(closed.size(), 3u);
  EXPECT_EQ(closed[0].t0, 0.0);
  EXPECT_EQ(closed[0].num_tasks, 2u);
  EXPECT_EQ(closed[1].t0, 10.0);  // deferred close, released by FinishStream
  EXPECT_EQ(closed[1].t1, 20.0);
  EXPECT_EQ(closed[1].num_tasks, 2u);
  // The tail {21} merges into [10,20) — the window closed during FinishStream.
  EXPECT_EQ(closed[2].merged_tail_tasks, 1u);
  EXPECT_EQ(closed[2].t0, 10.0);
  EXPECT_EQ(closed[2].num_tasks, 3u);
  EXPECT_EQ(closed[2].log.TaskEntryTime(0), 11.0);
  EXPECT_EQ(closed[2].log.TaskEntryTime(2), 21.0);
  EXPECT_EQ(assembler.Stats().tail_dropped, 0u);
}

TEST(WindowAssembler, TailMergesWhenEveryWindowClosesAtFinish) {
  // Regression: large lateness can defer every close to FinishStream; the 1-task tail
  // must still find the previous window instead of being dropped.
  WindowAssemblerOptions options;
  options.window_duration = 10.0;
  options.min_tasks_per_window = 2;
  options.allowed_lateness = 25.0;
  WindowAssembler assembler(2, options);
  for (const double t : {1.0, 2.0, 21.0}) {
    assembler.Push(TinyRecord(t));
  }
  EXPECT_FALSE(assembler.HasClosed());
  assembler.FinishStream();
  std::vector<ClosedWindow> closed;
  while (assembler.HasClosed()) {
    closed.push_back(assembler.PopClosed());
  }
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(closed[0].num_tasks, 2u);
  EXPECT_EQ(closed[1].merged_tail_tasks, 1u);
  EXPECT_EQ(closed[1].num_tasks, 3u);
  EXPECT_EQ(assembler.Stats().tail_dropped, 0u);
}

TEST(WindowAssembler, FastForwardsOverHugeIdleGaps) {
  // Epoch-style timestamps far from t = 0 (or long idle gaps) must not cost one loop
  // iteration per empty duration: ~28M empty 60 s windows precede these records.
  WindowAssemblerOptions options;
  options.window_duration = 60.0;
  options.min_tasks_per_window = 2;
  WindowAssembler assembler(2, options);
  const double epoch = 1.7e9;
  assembler.Push(TinyRecord(epoch + 1.0));
  assembler.Push(TinyRecord(epoch + 2.0));
  assembler.Push(TinyRecord(epoch + 70.0));
  ASSERT_TRUE(assembler.HasClosed());
  const ClosedWindow window = assembler.PopClosed();
  EXPECT_EQ(window.num_tasks, 2u);
  EXPECT_LE(window.t0, epoch + 1.0);
  EXPECT_GT(window.t1, epoch + 2.0);
  assembler.FinishStream();
  ASSERT_TRUE(assembler.HasClosed());
  EXPECT_EQ(assembler.PopClosed().merged_tail_tasks, 1u);
}

TEST(WindowAssembler, PeakBufferIsIndependentOfTraceLength) {
  // Uniformly spaced entries: the buffer high-water mark is one windowful regardless of
  // how long the stream runs — the bounded-memory contract.
  WindowAssemblerOptions options;
  options.window_duration = 10.0;
  options.min_tasks_per_window = 2;
  std::size_t peak_short = 0;
  std::size_t peak_long = 0;
  for (const std::size_t tasks : {200u, 2000u}) {
    WindowAssembler assembler(2, options);
    for (std::size_t k = 0; k < tasks; ++k) {
      assembler.Push(TinyRecord(0.5 + static_cast<double>(k)));
      while (assembler.HasClosed()) {
        assembler.PopClosed();
      }
    }
    assembler.FinishStream();
    while (assembler.HasClosed()) {
      assembler.PopClosed();
    }
    (tasks == 200u ? peak_short : peak_long) = assembler.Stats().peak_buffered_tasks;
  }
  EXPECT_EQ(peak_short, peak_long);
  // One open windowful plus the previous window's records retained for the tail merge.
  EXPECT_LE(peak_long, 22u);
}

// --- StreamingEstimator ----------------------------------------------------------------

StreamingEstimatorOptions ShortStemOptions(double window_duration = 25.0) {
  StreamingEstimatorOptions options;
  options.window.window_duration = window_duration;
  options.stem.iterations = 30;
  options.stem.burn_in = 10;
  options.stem.wait_sweeps = 5;
  return options;
}

// Reference implementation: batch windowing via ExtractTaskWindow with the same grouping,
// seeding, and trailing-merge rules the streaming engine promises. Pins the semantics the
// assembler + estimator must reproduce bit-for-bit.
std::vector<WindowEstimate> ReferenceWindowedStem(const EventLog& truth,
                                                  const Observation& obs,
                                                  std::vector<double> init_rates,
                                                  std::uint64_t seed,
                                                  const StreamingEstimatorOptions& options) {
  const StemEstimator estimator(options.stem);
  const std::size_t min_needed =
      std::max<std::size_t>(options.window.min_tasks_per_window, 2);
  std::vector<WindowEstimate> estimates;
  std::vector<int> pending;
  std::vector<int> last_window_tasks;
  double window_start = 0.0;
  double window_end = options.window.window_duration;
  double last_window_t0 = 0.0;
  std::vector<double> rates = std::move(init_rates);
  std::vector<double> prev_input_rates = rates;
  std::size_t window_index = 0;

  const auto estimate_window = [&](const std::vector<int>& tasks, double t0, double t1,
                                   const std::vector<double>& warm, std::uint64_t index,
                                   std::size_t merged_tail) {
    const auto [window, window_obs] = ExtractTaskWindow(truth, obs, tasks);
    Rng rng(MixSeed(seed, index));
    const StemResult result = estimator.Run(window, window_obs, warm, rng);
    WindowEstimate est;
    est.t0 = t0;
    est.t1 = t1;
    est.tasks = tasks.size();
    est.merged_tail_tasks = merged_tail;
    est.rates = result.rates;
    est.mean_wait = result.mean_wait;
    est.fit_iterations = result.iterations_run;
    return est;
  };

  for (int task = 0; task < truth.NumTasks(); ++task) {
    const double entry = truth.TaskEntryTime(task);
    while (entry >= window_end) {
      if (pending.size() >= min_needed) {
        prev_input_rates = rates;
        WindowEstimate est = estimate_window(pending, window_start, window_end, rates,
                                             window_index, 0);
        rates = est.rates;
        estimates.push_back(std::move(est));
        last_window_tasks = pending;
        last_window_t0 = window_start;
        ++window_index;
        pending.clear();
        window_start = window_end;
      }
      window_end += options.window.window_duration;
    }
    pending.push_back(task);
  }
  if (pending.size() >= min_needed) {
    WindowEstimate est =
        estimate_window(pending, window_start, window_end, rates, window_index, 0);
    estimates.push_back(std::move(est));
  } else if (!pending.empty() && !estimates.empty()) {
    std::vector<int> merged = last_window_tasks;
    merged.insert(merged.end(), pending.begin(), pending.end());
    estimates.back() = estimate_window(merged, last_window_t0, window_end,
                                       prev_input_rates, window_index - 1, pending.size());
  } else if (pending.size() >= 2) {
    WindowEstimate est =
        estimate_window(pending, window_start, window_end, rates, window_index, 0);
    estimates.push_back(std::move(est));
  }
  return estimates;
}

// Windowed StEM over a whole batch log, replayed through the streaming estimator.
std::vector<WindowEstimate> StreamLog(const EventLog& truth, const Observation& obs,
                                      std::vector<double> init_rates, std::uint64_t seed,
                                      const StreamingEstimatorOptions& options) {
  LogReplayStream stream(truth, obs);
  StreamingEstimator estimator(std::move(init_rates), seed, options);
  return estimator.Run(stream);
}

TEST(OnlineStem, ProducesPerWindowEstimates) {
  const QueueingNetwork net = MakeSingleQueueNetwork(4.0, 8.0);
  Rng rng(7);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(4.0, 600), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.5;
  const Observation obs = scheme.Apply(truth, rng);

  StreamingEstimatorOptions options;
  options.window.window_duration = 30.0;
  options.stem.iterations = 40;
  options.stem.burn_in = 15;
  options.stem.wait_sweeps = 0;
  const auto estimates = StreamLog(truth, obs, {1.0, 1.0}, rng.NextU64(), options);
  ASSERT_GE(estimates.size(), 3u);
  for (const auto& window : estimates) {
    EXPECT_GT(window.tasks, 0u);
    ASSERT_EQ(window.rates.size(), 2u);
    EXPECT_NEAR(1.0 / window.rates[1], 1.0 / 8.0, 0.08) << "window at " << window.t0;
  }
}

TEST(OnlineStem, ShardedWindowSweepsAreDeterministicAndAccurate) {
  // Streaming windows ride the same MoveKernel/sweep-driver core as batch StEM, so
  // flipping on sharded sweeps must keep estimates deterministic (thread count cannot
  // change them) and as accurate as the sequential scan.
  const QueueingNetwork net = MakeSingleQueueNetwork(4.0, 8.0);
  Rng rng(7);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(4.0, 400), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.5;
  const Observation obs = scheme.Apply(truth, rng);

  StreamingEstimatorOptions options;
  options.window.window_duration = 30.0;
  options.stem.iterations = 40;
  options.stem.burn_in = 15;
  options.stem.wait_sweeps = 0;
  options.stem.sharded_sweeps = true;
  options.stem.sharded.shards = 2;

  options.stem.sharded.threads = 1;
  Rng rng_a(21);
  const auto serial = StreamLog(truth, obs, {1.0, 1.0}, rng_a.NextU64(), options);
  options.stem.sharded.threads = 2;
  Rng rng_b(21);
  const auto parallel = StreamLog(truth, obs, {1.0, 1.0}, rng_b.NextU64(), options);

  ASSERT_GE(serial.size(), 3u);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t w = 0; w < serial.size(); ++w) {
    ASSERT_EQ(serial[w].rates.size(), parallel[w].rates.size());
    for (std::size_t q = 0; q < serial[w].rates.size(); ++q) {
      EXPECT_EQ(serial[w].rates[q], parallel[w].rates[q]) << "window " << w << " q=" << q;
    }
    EXPECT_NEAR(1.0 / serial[w].rates[1], 1.0 / 8.0, 0.08) << "window at " << serial[w].t0;
  }
}

TEST(OnlineStem, TracksMidStreamServiceDegradation) {
  // The queue slows down 4x halfway through; window estimates should reflect it.
  const QueueingNetwork net = MakeSingleQueueNetwork(2.0, 10.0);
  FaultSchedule faults;
  faults.AddSlowdown(1, 150.0, 1.0e9, 4.0);
  SimOptions sim_options;
  sim_options.faults = &faults;
  Rng rng(11);
  const EventLog truth =
      Simulate(net, PoissonArrivals(2.0, 600).Generate(rng), rng, sim_options);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.6;
  const Observation obs = scheme.Apply(truth, rng);

  StreamingEstimatorOptions options;
  options.window.window_duration = 75.0;
  options.stem.iterations = 40;
  options.stem.burn_in = 15;
  options.stem.wait_sweeps = 0;
  const auto estimates = StreamLog(truth, obs, {1.0, 1.0}, rng.NextU64(), options);
  ASSERT_GE(estimates.size(), 3u);
  const auto& first = estimates.front();
  const auto& last = estimates.back();
  const double early_service = 1.0 / first.rates[1];
  const double late_service = 1.0 / last.rates[1];
  EXPECT_NEAR(early_service, 0.1, 0.05);
  EXPECT_GT(late_service, 2.0 * early_service);
}

TEST(StreamingEstimator, MatchesBatchReferenceBitIdentically) {
  const Fixture f;
  const std::vector<double> init = {1.0, 1.0, 1.0};
  const std::uint64_t seed = 99;
  const StreamingEstimatorOptions options = ShortStemOptions();

  const auto reference = ReferenceWindowedStem(f.truth, f.obs, init, seed, options);
  LogReplayStream stream(f.truth, f.obs);
  StreamingEstimator estimator(init, seed, options);
  const auto streamed = estimator.Run(stream);

  ASSERT_GE(reference.size(), 3u);
  ExpectEstimatesIdentical(reference, streamed);
}

TEST(StreamingEstimator, BitIdenticalAcrossThreadCounts) {
  // The acceptance bar: 1/2/4 sharded-sweep threads — the window estimate sequence is
  // bit-identical; only wall-clock may change.
  const Fixture f;
  const std::vector<double> init = {1.0, 1.0, 1.0};
  const std::uint64_t seed = 5;
  StreamingEstimatorOptions options = ShortStemOptions();
  options.stem.sharded_sweeps = true;
  options.stem.sharded.shards = 2;

  std::vector<std::vector<WindowEstimate>> runs;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    options.stem.sharded.threads = threads;
    runs.push_back(StreamLog(f.truth, f.obs, init, seed, options));
  }
  ASSERT_GE(runs.front().size(), 3u);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    ExpectEstimatesIdentical(runs.front(), runs[i]);
  }
}

TEST(StreamingEstimator, CsvReplayMatchesInMemoryReplay) {
  const Fixture f;
  const std::vector<double> init = {1.0, 1.0, 1.0};
  const StreamingEstimatorOptions options = ShortStemOptions();

  LogReplayStream memory_stream(f.truth, f.obs);
  StreamingEstimator memory_estimator(init, 17, options);
  const auto from_memory = memory_estimator.Run(memory_stream);

  std::stringstream log_csv;
  std::stringstream obs_csv;
  WriteEventLog(log_csv, f.truth);
  WriteObservation(obs_csv, f.obs);
  CsvReplayStream csv_stream(log_csv, -1, &obs_csv);
  StreamingEstimator csv_estimator(init, 17, options);
  const auto from_csv = csv_estimator.Run(csv_stream);

  ExpectEstimatesIdentical(from_memory, from_csv);
}

TEST(StreamingEstimator, TrailingWindowIsMergedNotDropped) {
  // Regression for the batch-era data loss: a final window with fewer than
  // min_tasks_per_window tasks used to vanish in the last flush. Now it merges into the
  // previous window's span and the last estimate is re-fit over the union.
  const QueueingNetwork net = MakeSingleQueueNetwork(4.0, 8.0);
  Rng rng(31);
  EventLog truth = SimulateWorkload(net, PoissonArrivals(4.0, 120), rng);
  const Observation obs = Observation::FullyObserved(truth);

  StreamingEstimatorOptions options;
  // Choose a duration so the last window holds only a couple of tasks: entries run to
  // roughly 120/4 = 30s; a 12s window leaves a small remainder with high probability.
  options.window.window_duration = 12.0;
  options.window.min_tasks_per_window = 30;
  options.stem.iterations = 20;
  options.stem.burn_in = 5;
  options.stem.wait_sweeps = 0;

  Rng est_rng(7);
  const auto estimates = StreamLog(truth, obs, {1.0, 1.0}, est_rng.NextU64(), options);
  ASSERT_GE(estimates.size(), 1u);
  std::size_t total_tasks = 0;
  for (const auto& est : estimates) {
    total_tasks += est.tasks;
  }
  const std::size_t merged = estimates.back().merged_tail_tasks;
  // Every task is accounted for: either the tail made a full window (merged == 0 and the
  // counts already sum) or it was merged into the final estimate.
  EXPECT_EQ(total_tasks, static_cast<std::size_t>(truth.NumTasks()));
  // The final estimate's span covers the last task's entry time.
  EXPECT_GE(estimates.back().t1, truth.TaskEntryTime(truth.NumTasks() - 1));
  if (merged > 0) {
    EXPECT_LT(merged, std::max<std::size_t>(options.window.min_tasks_per_window, 2));
  }
}

TEST(StreamingEstimator, TinyStreamWithNoFullWindowStillEstimates) {
  // 3 tasks, all inside the first (never-closing) window: with no previous window to
  // merge into, a >= 2-task remainder is emitted instead of silently dropped.
  const QueueingNetwork net = MakeSingleQueueNetwork(2.0, 8.0);
  Rng rng(3);
  EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 3), rng);
  const Observation obs = Observation::FullyObserved(truth);

  StreamingEstimatorOptions options;
  options.window.window_duration = 1000.0;
  options.window.min_tasks_per_window = 8;
  options.stem.iterations = 10;
  options.stem.burn_in = 2;
  options.stem.wait_sweeps = 0;
  Rng est_rng(9);
  const auto estimates = StreamLog(truth, obs, {1.0, 1.0}, est_rng.NextU64(), options);
  ASSERT_EQ(estimates.size(), 1u);
  EXPECT_EQ(estimates.front().tasks, 3u);
}

TEST(StreamingEstimator, ReportsThroughputStats) {
  const Fixture f;
  const StreamingEstimatorOptions options = ShortStemOptions();
  LogReplayStream stream(f.truth, f.obs);
  StreamingEstimator estimator({1.0, 1.0, 1.0}, 1, options);
  const auto estimates = estimator.Run(stream);
  const StreamingStats& stats = estimator.Stats();
  EXPECT_EQ(stats.tasks_ingested, static_cast<std::size_t>(f.truth.NumTasks()));
  EXPECT_EQ(stats.windows_estimated, estimates.size());
  EXPECT_GT(stats.tasks_per_second, 0.0);
  EXPECT_GT(stats.total_wall_seconds, 0.0);
  EXPECT_EQ(stats.late_dropped, 0u);
  EXPECT_GT(stats.peak_buffered_tasks, 0u);
  EXPECT_LT(stats.peak_buffered_tasks, static_cast<std::size_t>(f.truth.NumTasks()));
}

// --- Window-local arrival-rate anchoring -------------------------------------------------

TEST(StreamingEstimator, WindowLocalAnchoringFixesLambdaDecay) {
  // Regression for the PR-4 forecaster wart: the StEM lambda iterate divides the task
  // count by the ABSOLUTE last entry time, so on a stream whose windows sit far from
  // t = 0 it decays toward zero. Window-local anchoring divides by the window's own
  // span instead. Default off preserves the historical behavior.
  const QueueingNetwork net = MakeSingleQueueNetwork(4.0, 10.0);
  Rng rng(19);
  EventLog truth = SimulateWorkload(net, PoissonArrivals(4.0, 1200), rng);
  const Observation obs = Observation::FullyObserved(truth);
  // Shift the whole trace 1000 s into the future (an epoch-style collector timestamp).
  const double shift = 1000.0;
  std::vector<TaskRecord> records;
  for (int task = 0; task < truth.NumTasks(); ++task) {
    TaskRecord record = MakeTaskRecord(truth, obs, task);
    record.entry_time += shift;
    for (TaskVisit& visit : record.visits) {
      visit.arrival += shift;
      visit.departure += shift;
    }
    records.push_back(std::move(record));
  }

  StreamingEstimatorOptions options;
  options.window.window_duration = 50.0;
  options.stem.iterations = 30;
  options.stem.burn_in = 10;
  options.stem.wait_sweeps = 0;

  qnet_testing::VectorStream legacy_stream(records, 2);
  StreamingEstimator legacy({1.0, 1.0}, 3, options);
  const auto unanchored = legacy.Run(legacy_stream);

  options.window_local_arrival_rate = true;
  qnet_testing::VectorStream anchored_stream(records, 2);
  StreamingEstimator anchored({1.0, 1.0}, 3, options);
  const auto window_local = anchored.Run(anchored_stream);

  ASSERT_GE(window_local.size(), 3u);
  ASSERT_EQ(window_local.size(), unanchored.size());
  // Skip window 0: its span starts at the t = 0 grid origin, where the two anchorings
  // coincide. Every later window sits ~1000 s from the origin.
  for (std::size_t w = 1; w < window_local.size(); ++w) {
    EXPECT_FALSE(unanchored[w].window_local_arrival_rate);
    EXPECT_TRUE(window_local[w].window_local_arrival_rate);
    // Decayed: the absolute anchor divides ~200 tasks by ~1000+ s.
    EXPECT_LT(unanchored[w].rates[0], 1.0) << "window " << w;
    // Window-local: tracks the true arrival rate of 4/s.
    EXPECT_NEAR(window_local[w].rates[0], 4.0, 1.0) << "window " << w;
    // The empirical rate the forecaster falls back to agrees with the anchored fit —
    // except on the final window, whose span may extend past the last arrival (grid
    // alignment / tail merge), deflating the empirical count-per-span.
    if (w + 1 < window_local.size()) {
      const double empirical = static_cast<double>(window_local[w].tasks) /
                               (window_local[w].t1 - window_local[w].t0);
      EXPECT_NEAR(window_local[w].rates[0], empirical, 0.75) << "window " << w;
    }
  }
}

TEST(StreamingEstimator, ExplicitZeroOriginIsBitIdenticalToDefault) {
  // The anchoring plumbing must not perturb the default path: origin 0.0 subtracts
  // exactly nothing from the M-step's queue-0 sum.
  const Fixture f;
  StreamingEstimatorOptions options = ShortStemOptions();
  LogReplayStream default_stream(f.truth, f.obs);
  StreamingEstimator default_estimator({1.0, 1.0, 1.0}, 29, options);
  const auto by_default = default_estimator.Run(default_stream);

  options.stem.arrival_time_origin = 0.0;  // explicit no-op
  LogReplayStream explicit_stream(f.truth, f.obs);
  StreamingEstimator explicit_estimator({1.0, 1.0, 1.0}, 29, options);
  const auto by_explicit = explicit_estimator.Run(explicit_stream);
  ExpectEstimatesIdentical(by_default, by_explicit);
}

// --- Mean-field fast path ----------------------------------------------------------------

TEST(StreamingEstimator, FastPathOffIsBitIdenticalToDefault) {
  // Carrying fast-path configuration with the mode off must not perturb the sampler
  // path by a bit: mean_field options and the degrade budget are dormant under kOff.
  const Fixture f;
  LogReplayStream default_stream(f.truth, f.obs);
  StreamingEstimator default_estimator({1.0, 1.0, 1.0}, 61, ShortStemOptions());
  const auto by_default = default_estimator.Run(default_stream);

  StreamingEstimatorOptions options = ShortStemOptions();
  options.fast_path = FastPathMode::kOff;
  options.degrade_task_budget = 10;  // dormant without kDegrade
  options.mean_field.fallback_rate = 123.0;
  LogReplayStream explicit_stream(f.truth, f.obs);
  StreamingEstimator explicit_estimator({1.0, 1.0, 1.0}, 61, options);
  const auto by_explicit = explicit_estimator.Run(explicit_stream);

  ExpectEstimatesIdentical(by_default, by_explicit);
  EXPECT_EQ(explicit_estimator.Stats().degraded_windows, 0u);
  for (const WindowEstimate& estimate : by_default) {
    EXPECT_FALSE(estimate.degraded);
    EXPECT_EQ(estimate.fit_iterations, 30u);  // full StEM run per window
  }
}

TEST(StreamingEstimator, WarmStartFastPathSavesIterationsDeterministically) {
  const Fixture f;
  const std::vector<double> init = {1.0, 1.0, 1.0};

  StreamingEstimatorOptions off = ShortStemOptions();
  LogReplayStream off_stream(f.truth, f.obs);
  StreamingEstimator off_estimator(init, 67, off);
  const auto baseline = off_estimator.Run(off_stream);
  ASSERT_GE(baseline.size(), 3u);

  StreamingEstimatorOptions warm = ShortStemOptions();
  warm.fast_path = FastPathMode::kWarmStart;
  warm.stem.convergence_tol = 0.05;
  warm.stem.convergence_patience = 2;

  // Bit-identical across sharded thread counts, like the sampler path.
  std::vector<std::vector<WindowEstimate>> runs;
  std::size_t iterations_total = 0;
  for (const std::size_t threads : {1u, 2u}) {
    StreamingEstimatorOptions options = warm;
    options.stem.sharded_sweeps = true;
    options.stem.sharded.shards = 2;
    options.stem.sharded.threads = threads;
    LogReplayStream stream(f.truth, f.obs);
    StreamingEstimator estimator(init, 67, options);
    runs.push_back(estimator.Run(stream));
    iterations_total = estimator.Stats().fit_iterations_total;
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    ExpectEstimatesIdentical(runs.front(), runs[i]);
  }

  // Early stop must actually bite (that is the throughput win) ...
  EXPECT_LT(iterations_total, baseline.size() * 30u);
  EXPECT_GT(iterations_total, 0u);
  for (const WindowEstimate& estimate : runs.front()) {
    EXPECT_FALSE(estimate.degraded);
    EXPECT_GE(estimate.fit_iterations, warm.stem.burn_in + 3u);
  }
  // ... while the estimates stay close to the cold-started full-length run.
  ASSERT_EQ(runs.front().size(), baseline.size());
  for (std::size_t w = 0; w < baseline.size(); ++w) {
    for (std::size_t q = 1; q < 3; ++q) {
      EXPECT_NEAR(runs.front()[w].rates[q], baseline[w].rates[q],
                  0.2 * baseline[w].rates[q])
          << "window " << w << " q=" << q;
    }
  }
}

TEST(StreamingEstimator, MeanFieldOnlyModeIsSamplerFreeAndBitIdentical) {
  const Fixture f;
  const std::vector<double> init = {1.0, 1.0, 1.0};
  StreamingEstimatorOptions options = ShortStemOptions();
  options.fast_path = FastPathMode::kMeanFieldOnly;

  std::vector<std::vector<WindowEstimate>> runs;
  std::size_t degraded = 0;
  for (const std::uint64_t seed : {71u, 73u}) {
    LogReplayStream stream(f.truth, f.obs);
    StreamingEstimator estimator(init, seed, options);
    runs.push_back(estimator.Run(stream));
    degraded = estimator.Stats().degraded_windows;
  }
  // Sampler-free: the seed is never consumed, so even DIFFERENT seeds are bit-identical.
  ASSERT_GE(runs.front().size(), 3u);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    ExpectEstimatesIdentical(runs.front(), runs[i]);
  }
  EXPECT_GE(degraded, runs.front().size());
  for (const WindowEstimate& estimate : runs.front()) {
    EXPECT_TRUE(estimate.degraded);
    EXPECT_EQ(estimate.fit_iterations, 0u);
    ASSERT_EQ(estimate.rates.size(), 3u);
    ASSERT_EQ(estimate.mean_wait.size(), 3u);
    // Mean-field service estimates land on the right scale (truth: mu = 8, 9).
    EXPECT_NEAR(1.0 / estimate.rates[1], 1.0 / 8.0, 0.5 / 8.0);
    EXPECT_NEAR(1.0 / estimate.rates[2], 1.0 / 9.0, 0.5 / 9.0);
  }
}

TEST(StreamingEstimator, DegradeModeTriggersOnWindowTaskCount) {
  const Fixture f;
  const std::vector<double> init = {1.0, 1.0, 1.0};
  StreamingEstimatorOptions options = ShortStemOptions();
  options.fast_path = FastPathMode::kDegrade;
  options.degrade_task_budget = 100;

  LogReplayStream stream(f.truth, f.obs);
  StreamingEstimator estimator(init, 79, options);
  const auto estimates = estimator.Run(stream);
  ASSERT_GE(estimates.size(), 3u);

  std::size_t degraded = 0;
  for (const WindowEstimate& estimate : estimates) {
    // The trigger is the window's task count — reproducible from the estimate itself.
    EXPECT_EQ(estimate.degraded, estimate.tasks > options.degrade_task_budget);
    EXPECT_EQ(estimate.fit_iterations == 0, estimate.degraded);
    degraded += estimate.degraded ? 1 : 0;
  }
  EXPECT_GT(degraded, 0u) << "budget chosen so the busiest windows degrade";
  EXPECT_LT(degraded, estimates.size()) << "budget chosen so quiet windows still sample";
  EXPECT_EQ(estimator.Stats().degraded_windows, degraded);

  // Deterministic: same stream, same options, same bits.
  LogReplayStream again_stream(f.truth, f.obs);
  StreamingEstimator again(init, 79, options);
  ExpectEstimatesIdentical(estimates, again.Run(again_stream));
}

// --- LiveSimStream ---------------------------------------------------------------------

TEST(LiveSimStream, ProducesFeasibleEntryOrderedTasks) {
  const QueueingNetwork net = MakeTandemNetwork(3.0, {6.0, 7.0});
  LiveSimOptions options;
  options.max_tasks = 200;
  options.arrival_rate = 3.0;
  LiveSimStream stream(net, options, 42);
  EXPECT_EQ(stream.NumQueues(), net.NumQueues());

  WindowLogBuilder builder(net.NumQueues());
  TaskRecord record;
  std::size_t count = 0;
  double last_entry = 0.0;
  while (stream.Next(record)) {
    EXPECT_GT(record.entry_time, last_entry);
    last_entry = record.entry_time;
    ASSERT_FALSE(record.visits.empty());
    EXPECT_EQ(record.visits.front().arrival, record.entry_time);
    builder.Add(record);
    ++count;
  }
  EXPECT_EQ(count, options.max_tasks);
  const auto [log, obs] = builder.Finish();
  std::string why;
  EXPECT_TRUE(log.IsFeasible(1e-9, &why)) << why;
  EXPECT_EQ(obs.observed_tasks.size(), static_cast<std::size_t>(log.NumTasks()));
}

TEST(LiveSimStream, DeterministicForAGivenSeed) {
  const QueueingNetwork net = MakeTandemNetwork(3.0, {6.0, 7.0});
  LiveSimOptions options;
  options.max_tasks = 80;
  options.arrival_rate = 3.0;
  options.observed_fraction = 0.5;
  LiveSimStream a(net, options, 9);
  LiveSimStream b(net, options, 9);
  TaskRecord ra;
  TaskRecord rb;
  while (a.Next(ra)) {
    ASSERT_TRUE(b.Next(rb));
    EXPECT_EQ(ra, rb);
  }
  EXPECT_FALSE(b.Next(rb));
}

TEST(LiveSimStream, HorizonBoundsTheStream) {
  const QueueingNetwork net = MakeSingleQueueNetwork(5.0, 20.0);
  LiveSimOptions options;
  options.horizon = 10.0;
  options.arrival_rate = 5.0;
  LiveSimStream stream(net, options, 13);
  TaskRecord record;
  std::size_t count = 0;
  while (stream.Next(record)) {
    EXPECT_LE(record.entry_time, options.horizon);
    ++count;
  }
  EXPECT_GT(count, 10u);  // ~50 expected
}

TEST(LiveSimStream, DrivesTheStreamingEstimator) {
  // End-to-end: live simulator -> assembler -> windowed StEM recovers the service rate.
  const QueueingNetwork net = MakeSingleQueueNetwork(4.0, 8.0);
  LiveSimOptions sim_options;
  sim_options.max_tasks = 600;
  sim_options.arrival_rate = 4.0;
  sim_options.observed_fraction = 0.5;
  LiveSimStream stream(net, sim_options, 11);

  StreamingEstimatorOptions options;
  options.window.window_duration = 30.0;
  options.stem.iterations = 40;
  options.stem.burn_in = 15;
  options.stem.wait_sweeps = 0;
  StreamingEstimator estimator({1.0, 1.0}, 21, options);
  const auto estimates = estimator.Run(stream);
  ASSERT_GE(estimates.size(), 3u);
  for (const auto& window : estimates) {
    ASSERT_EQ(window.rates.size(), 2u);
    EXPECT_NEAR(1.0 / window.rates[1], 1.0 / 8.0, 0.08) << "window at " << window.t0;
  }
  EXPECT_EQ(estimator.Stats().tasks_ingested, sim_options.max_tasks);
}

TEST(LiveSimStream, FaultScheduleShowsUpInWindowEstimates) {
  // The queue slows 4x mid-stream; the streaming engine sees it live.
  const QueueingNetwork net = MakeSingleQueueNetwork(2.0, 10.0);
  FaultSchedule faults;
  faults.AddSlowdown(1, 150.0, 1.0e9, 4.0);
  LiveSimOptions sim_options;
  sim_options.max_tasks = 600;
  sim_options.arrival_rate = 2.0;
  sim_options.faults = &faults;
  sim_options.observed_fraction = 0.6;
  LiveSimStream stream(net, sim_options, 11);

  StreamingEstimatorOptions options;
  options.window.window_duration = 75.0;
  options.stem.iterations = 40;
  options.stem.burn_in = 15;
  options.stem.wait_sweeps = 0;
  StreamingEstimator estimator({1.0, 1.0}, 23, options);
  const auto estimates = estimator.Run(stream);
  ASSERT_GE(estimates.size(), 3u);
  const double early_service = 1.0 / estimates.front().rates[1];
  const double late_service = 1.0 / estimates.back().rates[1];
  EXPECT_NEAR(early_service, 0.1, 0.05);
  EXPECT_GT(late_service, 2.0 * early_service);
}

TEST(LiveSimStream, AllOnesArrivalScaleIsBitIdenticalToNoSchedule) {
  // The modulation contract: the gap after an arrival at t is drawn at rate
  // arrival_rate * ArrivalFactor(t). A factor of exactly 1.0 multiplies the rate by
  // 1.0, so every Exponential draw — and therefore every record — is the same bits as
  // the unmodulated stream. This is what makes arrival scaling safe to leave wired in.
  const QueueingNetwork net = MakeSingleQueueNetwork(4.0, 8.0);
  LiveSimOptions base;
  base.max_tasks = 300;
  base.arrival_rate = 4.0;
  LiveSimStream plain(net, base, 17);

  FaultSchedule faults;
  faults.AddArrivalScale(0.0, 1.0e9, 1.0);
  faults.AddArrivalScale(10.0, 20.0, 1.0);  // overlapping all-1.0 segments too
  LiveSimOptions modulated = base;
  modulated.faults = &faults;
  LiveSimStream scaled(net, modulated, 17);

  TaskRecord a;
  TaskRecord b;
  std::size_t count = 0;
  while (true) {
    const bool more_a = plain.Next(a);
    const bool more_b = scaled.Next(b);
    ASSERT_EQ(more_a, more_b);
    if (!more_a) {
      break;
    }
    ASSERT_EQ(a, b) << "record " << count;
    ++count;
  }
  EXPECT_EQ(count, base.max_tasks);
}

TEST(LiveSimStream, ArrivalScaleSegmentsModulateTheLoad) {
  // A 3x segment over the middle third of the horizon should land ~3x the tasks of a
  // plain third (piecewise-constant modulated Poisson, rate lagging one gap).
  const QueueingNetwork net = MakeSingleQueueNetwork(4.0, 40.0);
  FaultSchedule faults;
  faults.AddArrivalScale(100.0, 200.0, 3.0);
  LiveSimOptions options;
  options.horizon = 300.0;
  options.arrival_rate = 4.0;
  options.faults = &faults;
  LiveSimStream stream(net, options, 23);

  std::size_t early = 0;
  std::size_t middle = 0;
  std::size_t late = 0;
  TaskRecord record;
  while (stream.Next(record)) {
    if (record.entry_time < 100.0) {
      ++early;
    } else if (record.entry_time < 200.0) {
      ++middle;
    } else {
      ++late;
    }
  }
  EXPECT_NEAR(static_cast<double>(early), 400.0, 100.0);
  EXPECT_NEAR(static_cast<double>(late), 400.0, 100.0);
  EXPECT_NEAR(static_cast<double>(middle), 1200.0, 200.0);
  EXPECT_GT(middle, 2 * early);
  EXPECT_GT(middle, 2 * late);
}

// --- Window grid: far-future entry times ------------------------------------------------

// The one-duration-at-a-time loop AdvanceWindowGrid replaces; nullopt if it stalls.
std::optional<double> StepGrid(double end, double duration, double bound) {
  while (end <= bound) {
    const double next = end + duration;
    if (!(next > end)) {
      return std::nullopt;
    }
    end = next;
  }
  return end;
}

TEST(WindowGrid, AdvanceMatchesOneStepAtATimeBitForBit) {
  Rng rng(97);
  int compared = 0;
  int stalled = 0;
  for (int c = 0; c < 3000; ++c) {
    double duration = 0.0;
    double end = 0.0;
    switch (c % 4) {
      case 0:  // the grid from its origin, over many binades
        duration = std::ldexp(0.5 + rng.Uniform(), static_cast<int>(rng.NextU64() % 40) - 20);
        end = duration;
        break;
      case 1: {  // a far start, duration a multiple of its spacing plus a tie or a fraction
        end = std::ldexp(1.0 + rng.Uniform(), static_cast<int>(rng.NextU64() % 80));
        const double spacing = std::nextafter(end, INFINITY) - end;
        static constexpr double kFractions[] = {0.0, 0.25, 0.5, 0.75};
        duration = (static_cast<double>(rng.NextU64() % 4) + kFractions[rng.NextU64() % 4]) *
                   spacing;
        if (duration == 0.0) {
          duration = spacing;
        }
        break;
      }
      case 2:  // round decimal durations from a start on their grid
        duration = std::vector<double>{10.0, 0.1, 1.0 / 3.0, 7.25, 1e-3, 86400.0}[c % 6];
        end = duration;
        for (int k = static_cast<int>(rng.NextU64() % 1000); k > 0; --k) {
          end += duration;
        }
        break;
      default:  // subnormal durations and starts
        duration = std::ldexp(1.0 + static_cast<double>(rng.NextU64() % 8), -1074);
        end = duration * static_cast<double>(1 + rng.NextU64() % 100);
        break;
    }
    const double steps = 1.0 + static_cast<double>(rng.NextU64() % 100000);
    const double bound = end + steps * duration * (0.5 + rng.Uniform());
    const std::optional<double> expected = StepGrid(end, duration, bound);
    if (expected) {
      ++compared;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(AdvanceWindowGrid(end, duration, bound)),
                std::bit_cast<std::uint64_t>(*expected))
          << "end " << end << " duration " << duration << " bound " << bound;
    } else {
      ++stalled;
      EXPECT_THROW(AdvanceWindowGrid(end, duration, bound), Error)
          << "end " << end << " duration " << duration << " bound " << bound;
    }
  }
  EXPECT_GT(compared, 2000);
  EXPECT_GT(stalled, 0);
}

TEST(WindowGrid, StallsRaiseErrorInsteadOfSpinning) {
  // 10 s windows stop advancing near 2^53 * 10 ~ 9e16.
  EXPECT_THROW(AdvanceWindowGrid(10.0, 10.0, 1e18), Error);
  EXPECT_THROW(AdvanceWindowGrid(10.0, 10.0, 1e300), Error);
  EXPECT_THROW(AdvanceWindowGrid(10.0, 10.0, INFINITY), Error);
  const double far = AdvanceWindowGrid(10.0, 10.0, 1e15);
  EXPECT_GT(far, 1e15);
  EXPECT_LE(far, 1e15 + 10.0);
  EXPECT_EQ(AdvanceWindowGrid(10.0, 10.0, 35.0), 40.0);
}

TEST(StreamingEstimator, FarFutureEntryTimesCompleteOrRaiseInBoundedTime) {
  // 39 records at t = 1..39 in 10 s windows, then one record far in the future. Before
  // the grid advanced in binade steps, every case from 1e15 on spun in the empty-window
  // skip; a time past the grid's stall point now raises Error, and 1e15 completes.
  StreamingEstimatorOptions options;
  options.window.window_duration = 10.0;
  options.fast_path = FastPathMode::kMeanFieldOnly;
  const auto run = [&](double far) {
    std::vector<TaskRecord> records;
    for (int t = 1; t <= 39; ++t) {
      records.push_back(TinyRecord(static_cast<double>(t)));
    }
    records.push_back(TinyRecord(far));
    qnet_testing::VectorStream stream(std::move(records), 2);
    StreamingEstimator estimator({1.0, 50.0}, 3, options);
    return estimator.Run(stream);
  };
  EXPECT_EQ(run(1e6).size(), 4u);
  const std::vector<WindowEstimate> far = run(1e15);
  ASSERT_EQ(far.size(), 4u);
  EXPECT_EQ(far.back().merged_tail_tasks, 1u);
  for (const double beyond : {1e18, 1e300, static_cast<double>(INFINITY)}) {
    EXPECT_THROW(run(beyond), Error) << beyond;
  }
}

}  // namespace
}  // namespace qnet
