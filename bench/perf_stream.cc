// Streaming-engine benchmarks: sustained ingest throughput and bounded-memory /
// steady-state allocation contracts (google-benchmark).
//
// Workflow (tracked in CI as BENCH_stream.json):
//   ./build/perf_stream --benchmark_format=json > BENCH_stream.json
// Headline metrics:
//   BM_StreamAssemble/N items_per_second — tasks/s through replay -> WindowAssembler ->
//                                          per-window EventLog+Observation build (no StEM);
//   BM_StreamEstimate items_per_second   — end-to-end tasks/s including the per-window
//                                          warm-started StEM runs;
//   BM_StreamBoundedMemory/N peak_buffered_tasks — assembler high-water mark on a
//                                          uniformly spaced synthetic stream; MUST be
//                                          identical across N (CI gates equality: memory
//                                          is bounded by the window, not the trace);
//   BM_StreamSteadyStateAllocations allocs_per_task — global operator-new calls per
//                                          ingested task in steady state; CI gates an
//                                          upper bound (per-window log building is
//                                          allowed to allocate, but the cost per task
//                                          must stay small and constant);
//   BM_CsvReplayNext items_per_second / bytes_per_second — CsvReplayStream::Next over an
//                                          in-memory three-tier trace CSV (log +
//                                          observation text); allocs_per_task MUST be 0
//                                          once the reader is warm (CI gates it).

#include <benchmark/benchmark.h>

#include <istream>
#include <sstream>
#include <streambuf>
#include <string>

// Counting allocator (defines global operator new/delete; one TU per binary).
#include "../tests/support/counting_allocator.h"

#include "qnet/model/builders.h"
#include "qnet/obs/observation.h"
#include "qnet/sim/simulator.h"
#include "qnet/stream/live_stream.h"
#include "qnet/stream/replay_stream.h"
#include "qnet/stream/streaming_estimator.h"
#include "qnet/stream/window_assembler.h"
#include "qnet/support/rng.h"
#include "qnet/trace/csv.h"

namespace {

using qnet_testing::AllocationCount;

struct Fixture {
  qnet::EventLog truth;
  qnet::Observation obs;
};

Fixture MakeFixture(std::size_t tasks) {
  qnet::ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  const qnet::QueueingNetwork net = qnet::MakeThreeTierNetwork(config);
  qnet::Rng rng(12345);
  qnet::EventLog truth = qnet::SimulateWorkload(net, qnet::PoissonArrivals(10.0, tasks), rng);
  qnet::TaskSamplingScheme scheme;
  scheme.fraction = 0.25;
  qnet::Observation obs = scheme.Apply(truth, rng);
  return Fixture{std::move(truth), std::move(obs)};
}

qnet::WindowAssemblerOptions AssemblerOptions() {
  qnet::WindowAssemblerOptions options;
  options.window_duration = 5.0;  // ~50 tasks per window at rate 10
  options.min_tasks_per_window = 8;
  return options;
}

// Replay -> assembler -> per-window log build, windows discarded (isolates ingest cost).
void BM_StreamAssemble(benchmark::State& state) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  const Fixture fixture = MakeFixture(tasks);
  std::size_t windows = 0;
  std::size_t peak = 0;
  for (auto _ : state) {
    qnet::LogReplayStream stream(fixture.truth, fixture.obs);
    qnet::WindowAssembler assembler(stream.NumQueues(), AssemblerOptions());
    qnet::TaskRecord record;
    while (stream.Next(record)) {
      assembler.Push(record);
      while (assembler.HasClosed()) {
        const qnet::ClosedWindow window = assembler.PopClosed();
        benchmark::DoNotOptimize(window.log.NumEvents());
        ++windows;
      }
    }
    assembler.FinishStream();
    while (assembler.HasClosed()) {
      assembler.PopClosed();
      ++windows;
    }
    peak = assembler.Stats().peak_buffered_tasks;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tasks));
  state.counters["windows_per_pass"] =
      static_cast<double>(windows) / static_cast<double>(state.iterations());
  state.counters["peak_buffered_tasks"] = static_cast<double>(peak);
}
BENCHMARK(BM_StreamAssemble)->Arg(2000)->Arg(16000)->Unit(benchmark::kMillisecond);

// End-to-end: replay -> assembler -> warm-started windowed StEM.
void BM_StreamEstimate(benchmark::State& state) {
  const Fixture fixture = MakeFixture(2000);
  qnet::StreamingEstimatorOptions options;
  options.window = AssemblerOptions();
  options.stem.iterations = 12;
  options.stem.burn_in = 4;
  options.stem.wait_sweeps = 0;
  const std::vector<double> init(
      static_cast<std::size_t>(fixture.truth.NumQueues()), 1.0);
  double tasks_per_second = 0.0;
  for (auto _ : state) {
    qnet::LogReplayStream stream(fixture.truth, fixture.obs);
    qnet::StreamingEstimator estimator(init, 17, options);
    const auto estimates = estimator.Run(stream);
    benchmark::DoNotOptimize(estimates.size());
    tasks_per_second = estimator.Stats().tasks_per_second;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2000);
  state.counters["tasks_per_sec_last_pass"] = tasks_per_second;
}
BENCHMARK(BM_StreamEstimate)->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();

// Live incremental simulation feeding the assembler: the sim-layer backend's throughput.
void BM_StreamLiveSim(benchmark::State& state) {
  qnet::ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  const qnet::QueueingNetwork net = qnet::MakeThreeTierNetwork(config);
  qnet::LiveSimOptions options;
  options.max_tasks = 2000;
  options.arrival_rate = 10.0;
  options.observed_fraction = 0.25;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    qnet::LiveSimStream stream(net, options, seed++);
    qnet::WindowAssembler assembler(stream.NumQueues(), AssemblerOptions());
    qnet::TaskRecord record;
    while (stream.Next(record)) {
      assembler.Push(record);
      while (assembler.HasClosed()) {
        benchmark::DoNotOptimize(assembler.PopClosed().log.NumEvents());
      }
    }
    assembler.FinishStream();
    while (assembler.HasClosed()) {
      assembler.PopClosed();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(options.max_tasks));
}
BENCHMARK(BM_StreamLiveSim)->Unit(benchmark::kMillisecond);

// Bounded-memory witness: uniformly spaced entries, one task per second, 5 s windows.
// peak_buffered_tasks must be IDENTICAL for every N — the assembler retains one open
// window plus the last closed window (trailing-merge copy), never the trace. CI gates
// the equality across the two Args.
void BM_StreamBoundedMemory(benchmark::State& state) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  qnet::TaskRecord record;
  qnet::TaskVisit visit;
  visit.state = 0;
  visit.queue = 1;
  record.visits.push_back(visit);
  std::size_t peak = 0;
  for (auto _ : state) {
    qnet::WindowAssembler assembler(2, AssemblerOptions());
    for (std::size_t k = 0; k < tasks; ++k) {
      const double entry = 0.5 + static_cast<double>(k);
      record.entry_time = entry;
      record.visits[0].arrival = entry;
      record.visits[0].departure = entry + 0.01;
      assembler.Push(record);
      while (assembler.HasClosed()) {
        benchmark::DoNotOptimize(assembler.PopClosed().num_tasks);
      }
    }
    assembler.FinishStream();
    while (assembler.HasClosed()) {
      assembler.PopClosed();
    }
    peak = assembler.Stats().peak_buffered_tasks;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tasks));
  state.counters["peak_buffered_tasks"] = static_cast<double>(peak);
}
BENCHMARK(BM_StreamBoundedMemory)->Arg(4000)->Arg(32000)->Unit(benchmark::kMillisecond);

// Steady-state allocation counter: operator-new calls per ingested task once the replay
// loop is warm (TaskRecord reuse means the per-task cost is the per-window log build
// amortized over its tasks). Gated in CI.
void BM_StreamSteadyStateAllocations(benchmark::State& state) {
  const Fixture fixture = MakeFixture(4000);
  // Warm-up pass outside the counted region.
  {
    qnet::LogReplayStream stream(fixture.truth, fixture.obs);
    qnet::WindowAssembler assembler(stream.NumQueues(), AssemblerOptions());
    qnet::TaskRecord record;
    while (stream.Next(record)) {
      assembler.Push(record);
      while (assembler.HasClosed()) {
        assembler.PopClosed();
      }
    }
  }
  std::size_t tasks = 0;
  const std::size_t before = AllocationCount();
  for (auto _ : state) {
    qnet::LogReplayStream stream(fixture.truth, fixture.obs);
    qnet::WindowAssembler assembler(stream.NumQueues(), AssemblerOptions());
    qnet::TaskRecord record;
    while (stream.Next(record)) {
      assembler.Push(record);
      ++tasks;
      while (assembler.HasClosed()) {
        assembler.PopClosed();
      }
    }
    assembler.FinishStream();
    while (assembler.HasClosed()) {
      assembler.PopClosed();
    }
  }
  const std::size_t after = AllocationCount();
  state.counters["allocs_per_task"] =
      tasks > 0 ? static_cast<double>(after - before) / static_cast<double>(tasks) : 0.0;
}
BENCHMARK(BM_StreamSteadyStateAllocations)->Unit(benchmark::kMillisecond);

// Read-only streambuf over a caller-owned string, so every pass re-reads the same CSV
// text without copying it into a stringstream.
class TextBuf : public std::streambuf {
 public:
  explicit TextBuf(const std::string& text) {
    char* begin = const_cast<char*>(text.data());
    setg(begin, begin, begin + text.size());
  }
};

// CsvReplayStream::Next alone: a three-tier {1,2,4} trace (arrival rate 40, service rate
// 60 per server, 25% of tasks observed), written by WriteEventLog / WriteObservation into
// memory and read back. Each pass reads its first task outside the timed and counted
// region (the row buffers and the record's visit vector are then warm), then the rest.
void BM_CsvReplayNext(benchmark::State& state) {
  constexpr std::size_t kTasks = 8000;
  qnet::ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  config.arrival_rate = 40.0;
  config.service_rate = 60.0;
  const qnet::QueueingNetwork net = qnet::MakeThreeTierNetwork(config);
  qnet::Rng rng(12345);
  const qnet::EventLog truth =
      qnet::SimulateWorkload(net, qnet::PoissonArrivals(40.0, kTasks), rng);
  qnet::TaskSamplingScheme scheme;
  scheme.fraction = 0.25;
  const qnet::Observation obs = scheme.Apply(truth, rng);
  std::ostringstream log_os;
  qnet::WriteEventLog(log_os, truth);
  const std::string log_csv = log_os.str();
  std::ostringstream obs_os;
  qnet::WriteObservation(obs_os, obs);
  const std::string obs_csv = obs_os.str();

  std::size_t tasks = 0;
  std::size_t allocations = 0;
  qnet::TaskRecord record;
  for (auto _ : state) {
    state.PauseTiming();
    TextBuf log_buf(log_csv);
    TextBuf obs_buf(obs_csv);
    std::istream log_is(&log_buf);
    std::istream obs_is(&obs_buf);
    qnet::CsvReplayStream stream(log_is, -1, &obs_is);
    stream.Next(record);
    ++tasks;
    state.ResumeTiming();
    const std::size_t before = AllocationCount();
    while (stream.Next(record)) {
      benchmark::DoNotOptimize(record.entry_time);
      ++tasks;
    }
    allocations += AllocationCount() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tasks));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(log_csv.size() + obs_csv.size()));
  state.counters["allocs_per_task"] =
      tasks > 0 ? static_cast<double>(allocations) / static_cast<double>(tasks) : 0.0;
}
BENCHMARK(BM_CsvReplayNext)->Unit(benchmark::kMillisecond);

}  // namespace
