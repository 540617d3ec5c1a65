// One benchmark process: builds one workload's inputs from the seed, runs its pipeline
// through qnet's public API, checks the outputs, and prints one JSON line of raw
// measurements for run.py to aggregate.
//
//   pipebench --workload stem-replay --seed 1 --mode e2e
//   pipebench --workload stem-replay --seed 1 --mode traced [--spans-out spans.csv]
//
// Both modes start with one untimed warm-up pass.
// e2e:    the workload's full-speed passes (tasks/s, CPU per task) with its paced
//         open-loop passes (window latency, misses) spread evenly between them; every
//         pass's figures are printed. The library runs at its default telemetry level;
//         the benchmark records no spans.
// traced: `traced_passes` times an untraced and a traced full-speed pass, then one
//         paced pass (generator lateness). The traced pass times the
//         calls into each module's public functions from this file and derives the
//         per-layer metrics; its estimates must equal the untraced pass's bit for bit.
//         A workload with a fleet probe also replays its trace from memory through a
//         ShardedStreamingEstimator after each traced pass (the shard layer's metrics);
//         campaign-monitor also runs a pass with its forecaster on two threads (the
//         telemetry layer's ring count).
//
// Exit status: 0 when every check passed, 1 when one failed (the JSON's "checks" names
// it), 2 on bad arguments.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "qnet/infer/meanfield.h"
#include "qnet/infer/sharded_sweep.h"
#include "qnet/infer/stem.h"
#include "qnet/stream/live_stream.h"
#include "qnet/stream/window_assembler.h"
#include "qnet/support/rng.h"
#include "qnet/telemetry/metrics.h"
#include "qnet/telemetry/timeline.h"
#include "workloads.h"

// Counting global allocator: every operator new bumps pipebench::g_allocations. GCC
// cannot see that the replaced operator new returns malloc memory once inlined.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  pipebench::g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  pipebench::g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1));
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace pipebench {
namespace {

// A record counts as late when it is handed over more than this after its due time.
constexpr double kLateThresholdMs = 0.1;
// Traced runs: the benchmark's spans must cover at least this share of the traced wall
// time.
constexpr double kCoverageBound = 0.9;
// A paced window misses when its estimate arrives later than this many windows of wall
// time after its closing record was due: the pipeline has fallen a window behind.
constexpr double kLatencyLimitWindows = 2.0;
// Correctness ceiling on rate_rel_error, every workload.
constexpr double kRateErrorCeiling = 0.35;
// campaign-monitor's forecaster threads. Timed passes run the forecast inline, as
// examples/streaming_monitor.cc does: on two threads its spawn-per-call workers made
// the pass time follow the host's scheduling (best pass 66-91k tasks/s between
// processes, against 86-97k inline). Traced runs add a pass on two threads, where
// each Forecast registers the workers' span rings (ROADMAP defect D1).
constexpr std::size_t kForecastThreads = 1;
constexpr std::size_t kProbeForecastThreads = 2;

SteadyPaceClock g_clock;
std::int64_t g_main_ns = 0;
std::int64_t g_first_offer_ns = -1;

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::uint64_t Counter(const qnet::MetricsSnapshot& s, const char* name) {
  const qnet::CounterSample* c = s.FindCounter(name);
  return c == nullptr ? 0 : c->value;
}

std::uint64_t WindowsClosedCounter() {
  return Counter(qnet::MetricRegistry::Global().Snapshot(), "qnet_stream_windows_closed_total");
}

// --- passes --------------------------------------------------------------------------

enum SpanName {
  kPass,       // one traced pass (root)
  kNext,       // TraceStream::Next (trace layer, or sim for the live stream)
  kPush,       // WindowAssembler::Push
  kPushClose,  // WindowAssembler::Push that closed a window
  kPop,        // WindowAssembler::PopClosed
  kFinish,     // WindowAssembler::FinishStream
  kPlan,       // WindowFitChain::PlanFit
  kMeanField,  // MeanFieldEstimator::Fit
  kStem,       // StemEstimator::Run
  kEmit,       // warm-start chain update and estimate collection
  kDetect,     // ChangeMonitor::Observe
  kForecast,   // WindowForecaster::Forecast
  kNumSpanNames,
};
constexpr const char* kSpanNames[kNumSpanNames] = {
    "pass", "next", "push", "push_close", "pop", "finish",
    "plan", "meanfield_fit", "stem_fit", "emit", "detect_observe", "forecast"};

struct PassOutput {
  std::vector<qnet::WindowEstimate> estimates;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t tasks = 0;
  std::size_t windows_closed = 0;
  std::size_t dropped_tasks = 0;
  std::size_t peak_buffered_tasks = 0;
  std::optional<qnet::FleetStats> fleet;  // fleet pass
  std::uint64_t allocations = 0;          // operator-new calls during Run (fleet pass)
  std::unique_ptr<MonitorConsumers> consumers;
  std::vector<double> latencies_ms;  // paced pass
  std::vector<double> lateness_ms;   // paced pass
  std::size_t inflight_peak = 0;     // traced pass over the live stream
  qnet::MetricsSnapshot before;      // registry around Run (traced and fleet passes)
  qnet::MetricsSnapshot after;
};

// The on_window consumers of a pass: the harness's latency recorder, then the
// campaign's monitor and forecaster (timed as their own spans when traced).
std::function<void(const qnet::WindowEstimate&)> Consumers(MonitorConsumers* consumers,
                                                           WindowLatencyRecorder* latency,
                                                           SpanLog* log) {
  return [consumers, latency, log, delivered = std::int64_t{0}](
             const qnet::WindowEstimate& e) mutable {
    // A merged-tail re-fit re-delivers the last window.
    const std::int64_t request = e.merged_tail_tasks > 0 ? delivered - 1 : delivered++;
    if (latency != nullptr) {
      latency->OnWindow(e);  // the window's latency ends when on_window receives it
    }
    if (consumers != nullptr) {
      if (log != nullptr) {
        {
          const ScopedTrace span(*log, kDetect, request);
          consumers->monitor.Observe(e);
        }
        const ScopedTrace span(*log, kForecast, request);
        consumers->forecaster.Forecast(e);
      } else {
        consumers->monitor.Observe(e);
        consumers->forecaster.Forecast(e);
      }
    }
  };
}

// The plain StreamingEstimator's window loop, rebuilt from the public calls it makes
// (stream -> assembler -> warm-start chain -> mean-field / StEM fit -> emit) with a span
// around each call. It must reproduce StreamingEstimator::Run's estimates bit for bit;
// the traced check enforces that.
std::vector<qnet::WindowEstimate> TracedPlainRun(
    const Workload& w, qnet::TraceStream& stream, SpanLog& log,
    const std::function<void(const qnet::WindowEstimate&)>& on_window,
    qnet::WindowAssemblerStats& assembler_stats, std::size_t& inflight_peak) {
  const auto* live = dynamic_cast<const qnet::LiveSimStream*>(&stream);
  const qnet::StreamingEstimatorOptions& o = w.options.stream;
  qnet::WindowAssembler assembler(stream.NumQueues(), o.window);
  qnet::WindowFitChain chain(w.init_rates, w.fit_seed, o.window_local_arrival_rate);
  qnet::MeanFieldEstimator mean_field(o.mean_field);
  qnet::MeanFieldFit mf_fit;
  qnet::ShardedSweepOptions cache_options;
  if (o.stem.sharded_sweeps) {
    cache_options = o.stem.sharded;
  } else {
    cache_options.shards = 1;
    cache_options.threads = 1;
  }
  qnet::ShardedSweepScheduler scheduler(cache_options);
  const bool cache_scheduler = o.stem.gibbs.batched || o.stem.sharded_sweeps;
  std::vector<qnet::WindowEstimate> estimates;

  const auto emit = [&](qnet::WindowEstimate&& e, std::int64_t request) {
    {
      const ScopedTrace span(log, kEmit, request);
      chain.Complete(e.rates);
      if (e.merged_tail_tasks > 0) {
        estimates.back() = std::move(e);
      } else {
        estimates.push_back(std::move(e));
      }
    }
    on_window(estimates.back());
  };
  const auto process = [&](qnet::ClosedWindow&& window) {
    const auto request = static_cast<std::int64_t>(window.window_index);
    qnet::WindowFitChain::Plan plan;
    {
      const ScopedTrace span(log, kPlan, request);
      plan = chain.PlanFit(window.window_index, window.merged_tail_tasks > 0, window.t0);
    }
    const bool mean_field_only =
        o.fast_path == qnet::FastPathMode::kMeanFieldOnly ||
        (o.fast_path == qnet::FastPathMode::kDegrade &&
         window.num_tasks > o.degrade_task_budget);
    if (o.fast_path != qnet::FastPathMode::kOff) {
      const ScopedTrace span(log, kMeanField, request);
      mean_field.Fit(window.log, window.obs, plan.arrival_time_origin, mf_fit);
      for (std::size_t q = 0; q < plan.warm_start.size(); ++q) {
        if (mf_fit.fitted[q] != 0) {
          plan.warm_start[q] = mf_fit.rates[q];
        }
      }
    }
    qnet::WindowEstimate e;
    e.t0 = window.t0;
    e.t1 = window.t1;
    e.tasks = window.num_tasks;
    e.merged_tail_tasks = window.merged_tail_tasks;
    e.window_local_arrival_rate = o.window_local_arrival_rate;
    e.degraded = mean_field_only;
    if (mean_field_only) {
      e.rates = std::move(plan.warm_start);
      e.mean_wait = mf_fit.mean_wait;
    } else {
      const ScopedTrace span(log, kStem, request);
      qnet::StemOptions stem = o.stem;
      stem.arrival_time_origin = plan.arrival_time_origin;
      stem.scheduler_cache = cache_scheduler ? &scheduler : nullptr;
      const qnet::StemEstimator estimator(stem);
      qnet::Rng rng(plan.seed);
      qnet::StemResult result =
          estimator.Run(window.log, window.obs, std::move(plan.warm_start), rng);
      e.rates = std::move(result.rates);
      e.mean_wait = std::move(result.mean_wait);
      e.fit_iterations = result.iterations_run;
    }
    emit(std::move(e), request);
  };
  const auto drain = [&](std::int64_t& open_window) {
    while (assembler.HasClosed()) {
      qnet::ClosedWindow window;
      {
        const ScopedTrace span(log, kPop, open_window);
        window = assembler.PopClosed();
      }
      open_window = static_cast<std::int64_t>(window.window_index) + 1;
      process(std::move(window));
    }
  };

  qnet::TaskRecord record;
  std::int64_t open_window = 0;
  while (true) {
    bool more = false;
    {
      const ScopedTrace span(log, kNext, open_window);
      more = stream.Next(record);
    }
    if (!more) {
      break;
    }
    if (live != nullptr) {
      inflight_peak = std::max(inflight_peak, live->TasksInFlight());
    }
    {
      const ScopedTrace span(log, kPush, open_window);
      assembler.Push(record);
      if (assembler.HasClosed()) {
        log.Rename(span.Id(), kPushClose);
      }
    }
    drain(open_window);
  }
  {
    const ScopedTrace span(log, kFinish, open_window);
    assembler.FinishStream();
  }
  drain(open_window);
  assembler_stats = assembler.Stats();
  return estimates;
}

// kFull: full speed through StreamingEstimator::Run. kPaced: the same at the offered
// rate. kTraced: full speed through TracedPlainRun. kFleet: full speed through a
// ShardedStreamingEstimator over the trace replayed from memory (fleet probe).
// kThreadedForecast: kFull with the forecaster on kProbeForecastThreads threads
// (forecaster probe).
enum class PassKind { kFull, kPaced, kTraced, kFleet, kThreadedForecast };

PassOutput RunPass(const Workload& w, PassKind kind, SpanLog* log) {
  PassOutput out;
  std::unique_ptr<qnet::TraceStream> stream =
      kind == PassKind::kFleet ? w.MakeMemoryStream() : w.MakeStream();
  std::optional<PacedStream> paced;
  std::optional<WindowLatencyRecorder> latency;
  qnet::TraceStream* source = stream.get();
  if (kind == PassKind::kPaced) {
    paced.emplace(*stream, w.offered_rate / w.arrival_rate, g_clock);
    latency.emplace(*paced, g_clock);
    source = &*paced;
  }
  out.consumers = MakeConsumers(
      w, kind == PassKind::kThreadedForecast ? kProbeForecastThreads : kForecastThreads);
  SpanLog* span_log = kind == PassKind::kTraced ? log : nullptr;
  qnet::ShardedStreamingOptions options = w.options;
  options.stream.on_window =
      Consumers(out.consumers.get(), latency ? &*latency : nullptr, span_log);
  // The pipeline objects are built before the clock starts: their construction is
  // set-up, and tasks_per_s divides by the wall time of Run() alone.
  std::optional<qnet::ShardedStreamingEstimator> fleet;
  std::optional<qnet::StreamingEstimator> estimator;
  if (kind == PassKind::kFleet) {
    fleet.emplace(w.init_rates, w.fit_seed, options);
  } else if (kind != PassKind::kTraced) {
    estimator.emplace(w.init_rates, w.fit_seed, options.stream);
  }

  std::optional<ScopedTrace> root;
  if (kind == PassKind::kTraced || kind == PassKind::kFleet) {
    out.before = qnet::MetricRegistry::Global().Snapshot();
  }
  if (span_log != nullptr) {
    root.emplace(*span_log, kPass, -1);
  }
  const std::uint64_t closed_before = WindowsClosedCounter();
  if (g_first_offer_ns < 0) {
    g_first_offer_ns = g_clock.NowNs();
  }
  const std::uint64_t allocations0 = AllocationCount();
  const double cpu0 = CpuSeconds();
  const std::int64_t t0 = g_clock.NowNs();
  if (fleet) {
    out.estimates = fleet->Run(*source);
    const qnet::FleetStats& stats = fleet->Stats();
    out.tasks = stats.tasks_ingested;
    out.dropped_tasks = stats.late_dropped + stats.tail_dropped;
    for (const qnet::LaneStats& lane : stats.lane) {
      out.peak_buffered_tasks = std::max(out.peak_buffered_tasks, lane.peak_buffered_tasks);
    }
    out.fleet = stats;
  } else if (span_log != nullptr) {
    qnet::WindowAssemblerStats stats;
    out.estimates = TracedPlainRun(w, *source, *span_log, options.stream.on_window, stats,
                                   out.inflight_peak);
    out.tasks = stats.tasks_ingested;
    out.dropped_tasks = stats.late_dropped + stats.tail_dropped;
    out.peak_buffered_tasks = stats.peak_buffered_tasks;
  } else {
    out.estimates = estimator->Run(*source);
    const qnet::StreamingStats& stats = estimator->Stats();
    out.tasks = stats.tasks_ingested;
    out.dropped_tasks = stats.late_dropped + stats.tail_dropped;
    out.peak_buffered_tasks = stats.peak_buffered_tasks;
  }
  out.wall_s = static_cast<double>(g_clock.NowNs() - t0) / 1e9;
  out.cpu_s = CpuSeconds() - cpu0;
  out.allocations = AllocationCount() - allocations0;
  root.reset();
  out.windows_closed = WindowsClosedCounter() - closed_before;
  if (kind == PassKind::kTraced || kind == PassKind::kFleet) {
    out.after = qnet::MetricRegistry::Global().Snapshot();
  }
  if (latency) {
    out.latencies_ms = latency->LatenciesMs();
    for (const std::int64_t late : paced->LatenessNs()) {
      out.lateness_ms.push_back(static_cast<double>(late) / 1e6);
    }
  }
  return out;
}

// --- checks --------------------------------------------------------------------------

bool Usable(const qnet::WindowEstimate& e) {
  if (e.rates.empty()) {
    return false;
  }
  for (const double r : e.rates) {
    if (!std::isfinite(r) || r <= 0.0) {
      return false;
    }
  }
  for (const double m : e.mean_wait) {
    if (!std::isfinite(m)) {
      return false;
    }
  }
  return true;
}

// Windows closed that produced no usable estimate: missing or non-finite.
std::size_t UnusableWindows(const PassOutput& pass) {
  std::size_t bad = pass.windows_closed > pass.estimates.size()
                        ? pass.windows_closed - pass.estimates.size()
                        : 0;
  for (const qnet::WindowEstimate& e : pass.estimates) {
    bad += Usable(e) ? 0 : 1;
  }
  return bad;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameEstimates(const std::vector<qnet::WindowEstimate>& a,
                   const std::vector<qnet::WindowEstimate>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const qnet::WindowEstimate& x = a[i];
    const qnet::WindowEstimate& y = b[i];
    if (std::memcmp(&x.t0, &y.t0, sizeof(double)) != 0 ||
        std::memcmp(&x.t1, &y.t1, sizeof(double)) != 0 || x.tasks != y.tasks ||
        x.merged_tail_tasks != y.merged_tail_tasks || x.degraded != y.degraded ||
        x.fit_iterations != y.fit_iterations || !SameBits(x.rates, y.rates) ||
        !SameBits(x.mean_wait, y.mean_wait)) {
      return false;
    }
  }
  return true;
}

// --- output --------------------------------------------------------------------------

class JsonObject {
 public:
  // A non-finite value prints as -1; every such value also fails a check.
  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : -1.0);
    Raw(key, buf);
  }
  void Add(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
      }
      quoted += c;
    }
    Raw(key, quoted + "\"");
  }
  void AddBool(const std::string& key, bool value) { Raw(key, value ? "true" : "false"); }
  void Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + json;
  }
  std::string Str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (const double v : values) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.17g", out.size() > 1 ? ", " : "", v);
    out += buf;
  }
  return out + "]";
}

struct Checks {
  JsonObject json;
  bool all = true;
  void Add(const std::string& name, bool ok) {
    json.AddBool(name, ok);
    all = all && ok;
  }
};

double ShareAbove(const std::vector<double>& values, double threshold) {
  std::size_t above = 0;
  for (const double v : values) {
    above += v > threshold ? 1 : 0;
  }
  return values.empty() ? 0.0 : static_cast<double>(above) / static_cast<double>(values.size());
}

double P(const std::vector<double>& values, double q) {
  return values.empty() ? 0.0 : Percentile(values, q);
}

// Per-layer metrics of one traced pass and, when the workload has one, its fleet probe.
// Metrics of layers the workload does not run are 0.
JsonObject LayerMetrics(const Workload& w, const PassOutput& traced, const SpanLog& log,
                        const PassOutput* fleet) {
  const SpanLog::SelfTotals t = log.Totals(kNumSpanNames);
  const double tasks = static_cast<double>(std::max<std::size_t>(traced.tasks, 1));
  const double windows = static_cast<double>(std::max<std::size_t>(traced.windows_closed, 1));
  const auto self = [&](SpanName n) { return t.self_ns[n]; };
  const auto allocs = [&](SpanName n) { return t.self_allocs[n]; };
  JsonObject m;

  m.Add("trace.next_ns_per_task", w.LiveStream() ? 0.0 : self(kNext) / tasks);
  m.Add("trace.input_bytes_per_task", static_cast<double>(w.InputBytes()) / tasks);
  m.Add("sim.next_ns_per_task", w.LiveStream() ? self(kNext) / tasks : 0.0);
  m.Add("sim.inflight_peak", static_cast<double>(traced.inflight_peak));

  m.Add("stream.push_ns_per_task", (self(kPush) + self(kPushClose)) / tasks);
  m.Add("stream.close_us_per_window",
        (self(kPushClose) + self(kPop) + self(kFinish) + self(kEmit)) / 1e3 / windows);
  m.Add("stream.allocs_per_task",
        (allocs(kPush) + allocs(kPushClose) + allocs(kPop) + allocs(kFinish) + allocs(kEmit)) /
            tasks);
  m.Add("stream.peak_buffered_tasks", static_cast<double>(traced.peak_buffered_tasks));
  m.Add("stream.dropped_tasks", static_cast<double>(traced.dropped_tasks));

  const std::vector<double> stem_us = log.DurationsUs(kStem);
  double iterations = 0.0;
  for (const qnet::WindowEstimate& e : traced.estimates) {
    iterations += static_cast<double>(e.fit_iterations);
  }
  const double moves = static_cast<double>(
      Counter(traced.after, "qnet_sweep_moves_total") -
      Counter(traced.before, "qnet_sweep_moves_total"));
  const double budget = static_cast<double>(w.options.stream.stem.iterations);
  const double fits = static_cast<double>(t.count[kStem] + t.count[kMeanField]);
  m.Add("infer.stem_fit_us_p50", P(stem_us, 0.5));
  m.Add("infer.stem_fit_us_p90", P(stem_us, 0.9));
  m.Add("infer.ns_per_move", moves > 0 ? self(kStem) / moves : 0.0);
  m.Add("infer.iterations_ratio",
        t.count[kStem] > 0 ? iterations / (static_cast<double>(t.count[kStem]) * budget) : 0.0);
  m.Add("infer.meanfield_fit_us_p50", P(log.DurationsUs(kMeanField), 0.5));
  m.Add("infer.allocs_per_fit",
        fits > 0 ? (allocs(kPlan) + allocs(kMeanField) + allocs(kStem)) / fits : 0.0);

  if (fleet != nullptr) {
    const qnet::FleetStats& f = *fleet->fleet;
    double max_routed = 0.0;
    std::size_t peak_queue = 0;
    for (const qnet::LaneStats& lane : f.lane) {
      max_routed = std::max(max_routed, static_cast<double>(lane.tasks_routed));
      peak_queue = std::max(peak_queue, lane.peak_queue_depth);
    }
    const double lanes = static_cast<double>(std::max<std::size_t>(f.lanes, 1));
    const double fleet_tasks = static_cast<double>(std::max<std::size_t>(fleet->tasks, 1));
    // Lane time spent closing windows (assembly plus fit), from the registry's
    // window_assemble stage, over lane wall time.
    const qnet::HistogramSample* assemble_after =
        fleet->after.FindHistogram("qnet_stage_window_assemble_ns");
    const qnet::HistogramSample* assemble_before =
        fleet->before.FindHistogram("qnet_stage_window_assemble_ns");
    const double assemble_ns =
        assemble_after == nullptr
            ? 0.0
            : static_cast<double>(assemble_after->sum -
                                  (assemble_before != nullptr ? assemble_before->sum : 0));
    m.Add("shard.router_blocked_ms", f.router_blocked_seconds * 1e3);
    m.Add("shard.merge_lag_max_ms", f.max_merge_lag_seconds * 1e3);
    m.Add("shard.lane_busy_share", assemble_ns / 1e9 / (lanes * fleet->wall_s));
    m.Add("shard.lane_skew", max_routed / (fleet_tasks / lanes));
    m.Add("shard.peak_queue_depth", static_cast<double>(peak_queue));
    m.Add("shard.allocs_per_task", static_cast<double>(fleet->allocations) / fleet_tasks);
  } else {
    for (const char* name : {"shard.router_blocked_ms", "shard.merge_lag_max_ms",
                             "shard.lane_busy_share", "shard.lane_skew",
                             "shard.peak_queue_depth", "shard.allocs_per_task"}) {
      m.Add(name, 0.0);
    }
  }

  if (traced.consumers != nullptr) {
    const qnet::CampaignResult scored = qnet::ScoreCampaign(
        *w.campaign, traced.estimates, traced.consumers->monitor.Alerts());
    const double forecasts = static_cast<double>(std::max<std::size_t>(t.count[kForecast], 1));
    m.Add("detect.observe_us_p50", P(log.DurationsUs(kDetect), 0.5));
    m.Add("detect.alerts", static_cast<double>(scored.alerts.size()));
    m.Add("detect.quiet_alerts", static_cast<double>(scored.false_alarms));
    m.Add("detect.latency_windows_max", static_cast<double>(scored.MaxLatencyWindows()));
    m.Add("scenario.forecast_us_p50", P(log.DurationsUs(kForecast), 0.5));
    m.Add("scenario.forecast_us_p90", P(log.DurationsUs(kForecast), 0.9));
    m.Add("scenario.allocs_per_forecast", allocs(kForecast) / forecasts);
  } else {
    for (const char* name :
         {"detect.observe_us_p50", "detect.alerts", "detect.quiet_alerts",
          "detect.latency_windows_max", "scenario.forecast_us_p50",
          "scenario.forecast_us_p90", "scenario.allocs_per_forecast"}) {
      m.Add(name, 0.0);
    }
  }
  return m;
}

// Self-time share of the traced pass per span name (diagnostic output).
JsonObject SelfShares(const SpanLog& log) {
  const SpanLog::SelfTotals t = log.Totals(kNumSpanNames);
  const Span& root = log.Spans()[0];
  const double wall = static_cast<double>(root.end_ns - root.start_ns);
  JsonObject shares;
  for (int n = 0; n < kNumSpanNames; ++n) {
    shares.Add(kSpanNames[n], t.self_ns[n] / wall);
  }
  return shares;
}

// Share of the traced wall time covered by spans around module calls (the root
// excluded).
double Coverage(const SpanLog& log) {
  const SpanLog::SelfTotals t = log.Totals(kNumSpanNames);
  const Span& root = log.Spans()[0];
  double covered = 0.0;
  for (int n = 0; n < kNumSpanNames; ++n) {
    if (n != kPass) {
      covered += t.self_ns[n];
    }
  }
  return covered / static_cast<double>(root.end_ns - root.start_ns);
}

void WriteSpans(const std::string& path, const SpanLog& log) {
  std::ofstream out(path);
  out << "span,name,parent,request,start_ns,end_ns,allocs\n";
  const std::vector<Span>& spans = log.Spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << i << ',' << kSpanNames[s.name] << ',' << s.parent << ',' << s.request << ','
        << s.start_ns - spans[0].start_ns << ',' << s.end_ns - spans[0].start_ns << ','
        << s.allocs_end - s.allocs_start << '\n';
  }
}

std::string Fingerprint() {
  JsonObject f;
  f.Add("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  f.Add("cpu_model", CpuModel());
  f.Add("build_type", PIPEBENCH_BUILD_TYPE);
  f.Add("qnet_telemetry", std::string(PIPEBENCH_TELEMETRY_OPTION) + " (QNET_TELEMETRY=" +
                              std::to_string(QNET_TELEMETRY) + ")");
  f.Add("trace_level", static_cast<double>(qnet::Timeline::Level()));
  return f.Str();
}

int Run(const std::string& name, std::uint64_t seed, bool traced, const std::string& spans_out) {
  std::unique_ptr<Workload> w = MakeWorkload(name, seed);
  if (w == nullptr) {
    std::fprintf(stderr, "pipebench: unknown workload '%s'\n", name.c_str());
    return 2;
  }
  Checks checks;
  bool estimates_finite = true;
  bool counts_match = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto account = [&](const PassOutput& pass) {
    for (const qnet::WindowEstimate& e : pass.estimates) {
      estimates_finite = estimates_finite && Usable(e);
    }
    counts_match = counts_match && pass.estimates.size() == pass.windows_closed;
    attempted += pass.windows_closed;
    failed += UnusableWindows(pass);
  };

  JsonObject out;
  out.Add("workload", name);
  out.Add("seed", static_cast<double>(seed));

  std::vector<double> tasks_per_s;
  std::vector<double> cpu_us_per_task;
  std::optional<PassOutput> first;
  // Runs one full-speed pass; returns its wall time.
  const auto full_pass = [&]() {
    PassOutput pass = RunPass(*w, PassKind::kFull, nullptr);
    const double wall_s = pass.wall_s;
    account(pass);
    tasks_per_s.push_back(static_cast<double>(pass.tasks) / pass.wall_s);
    cpu_us_per_task.push_back(pass.cpu_s * 1e6 / static_cast<double>(pass.tasks));
    if (!first) {
      first = std::move(pass);
    }
    return wall_s;
  };

  std::string window_latencies_ms;  // one JSON array per paced pass, in window order
  std::vector<double> lateness_ms;
  std::size_t paced_windows = 0;
  std::size_t unusable_windows = 0;  // most in one paced pass
  bool paced_matches = true;
  bool percentiles_supported = true;
  const auto paced_pass = [&]() {
    PassOutput paced = RunPass(*w, PassKind::kPaced, nullptr);
    account(paced);
    unusable_windows = std::max(unusable_windows, UnusableWindows(paced));
    paced_windows += paced.windows_closed;
    paced_matches = paced_matches && SameEstimates(paced.estimates, first->estimates);
    percentiles_supported =
        percentiles_supported && SupportsPercentile(paced.latencies_ms.size(), 0.9);
    window_latencies_ms +=
        (window_latencies_ms.empty() ? "" : ", ") + JsonArray(paced.latencies_ms);
    lateness_ms.insert(lateness_ms.end(), paced.lateness_ms.begin(), paced.lateness_ms.end());
  };

  std::vector<double> traced_wall;
  std::vector<double> untraced_wall;
  std::optional<PassOutput> last_traced;
  std::optional<PassOutput> last_fleet;
  std::vector<double> fleet_tasks_per_s;
  bool fleet_repeats = true;
  SpanLog last_log(g_clock);
  bool traced_matches = true;
  bool forecaster_matches = true;
  double rings_registered = 0.0;
  // Warm-up: a stream runs for long in one process, so the process's one-time costs
  // (first-touch page faults, lazy registrations) stay out of the timed passes.
  account(RunPass(*w, PassKind::kFull, nullptr));
  if (traced) {
    for (int i = 0; i < w->traced_passes; ++i) {
      untraced_wall.push_back(full_pass());
      SpanLog log(g_clock);
      PassOutput t = RunPass(*w, PassKind::kTraced, &log);
      account(t);
      traced_wall.push_back(t.wall_s);
      traced_matches = traced_matches && SameEstimates(t.estimates, first->estimates);
      last_traced = std::move(t);
      last_log = std::move(log);
      if (w->fleet_probe) {
        PassOutput f = RunPass(*w, PassKind::kFleet, nullptr);
        account(f);
        fleet_tasks_per_s.push_back(static_cast<double>(f.tasks) / f.wall_s);
        // A fixed lane count makes the fleet's estimates independent of thread timing.
        fleet_repeats =
            fleet_repeats && (!last_fleet || SameEstimates(f.estimates, last_fleet->estimates));
        last_fleet = std::move(f);
      }
      if (w->campaign != nullptr) {
        const std::size_t rings_before = qnet::Timeline::CollectSpans().size();
        PassOutput probe = RunPass(*w, PassKind::kThreadedForecast, nullptr);
        rings_registered =
            static_cast<double>(qnet::Timeline::CollectSpans().size() - rings_before);
        account(probe);
        forecaster_matches =
            forecaster_matches && SameEstimates(probe.estimates, first->estimates);
      }
    }
    paced_pass();
  } else {
    // Full-speed and paced passes interleave, so that both sample the same host states.
    for (int i = 0; i < w->paced_passes; ++i) {
      while (static_cast<int>(tasks_per_s.size()) < w->full_passes * (i + 1) / w->paced_passes) {
        full_pass();
      }
      paced_pass();
    }
  }
  const double setup_s = static_cast<double>(g_first_offer_ns - g_main_ns) / 1e9;

  const double rate_error = RateRelError(first->estimates, w->truth);
  checks.Add("estimates_finite", estimates_finite);
  checks.Add("estimate_count_equals_windows_closed", counts_match);
  checks.Add("paced_estimates_equal_full_speed", paced_matches);
  checks.Add("rate_rel_error_under_ceiling", rate_error <= kRateErrorCeiling);
  checks.Add("p90_has_10_samples_beyond", percentiles_supported);
  if (w->campaign != nullptr) {
    const qnet::CampaignResult scored = qnet::ScoreCampaign(
        *w->campaign, first->estimates, first->consumers->monitor.Alerts());
    checks.Add("scripted_changes_detected", scored.AllDetected());
  }

  out.Add("setup_s", setup_s);
  out.Raw("tasks_per_s", JsonArray(tasks_per_s));
  out.Raw("cpu_us_per_task", JsonArray(cpu_us_per_task));
  out.Raw("window_latencies_ms", "[" + window_latencies_ms + "]");
  out.Add("latency_limit_ms", kLatencyLimitWindows * w->WindowWallMs());
  out.Add("unusable_windows", static_cast<double>(unusable_windows));
  out.Add("rate_rel_error", rate_error);
  out.Add("tasks_per_pass", static_cast<double>(first->tasks));
  out.Add("windows_per_pass", static_cast<double>(first->windows_closed));

  if (traced) {
    checks.Add("traced_estimates_equal_untraced", traced_matches);
    if (w->campaign != nullptr) {
      checks.Add("threaded_forecaster_estimates_equal_inline", forecaster_matches);
    }
    const double coverage = Coverage(last_log);
    checks.Add("traced_coverage_at_least_0.9", coverage >= kCoverageBound);
    if (last_fleet) {
      checks.Add("fleet_estimates_repeat_bit_for_bit", fleet_repeats);
      checks.Add("fleet_rate_rel_error_under_ceiling",
                 RateRelError(last_fleet->estimates, w->truth) <= kRateErrorCeiling);
    }
    JsonObject layers = LayerMetrics(*w, *last_traced, last_log,
                                     last_fleet ? &*last_fleet : nullptr);
    layers.Add("shard.tasks_per_s", fleet_tasks_per_s.empty() ? 0.0 : Median(fleet_tasks_per_s));
    layers.Add("telemetry.rings_registered", rings_registered);
    layers.Add("bench.generator_late_share", ShareAbove(lateness_ms, kLateThresholdMs));
    layers.Add("bench.generator_late_p90_ms", P(lateness_ms, 0.9));
    layers.Add("bench.trace_overhead_pct",
               (Median(traced_wall) / Median(untraced_wall) - 1.0) * 100.0);
    layers.Add("bench.traced_coverage", coverage);
    layers.Add("bench.latency_samples", static_cast<double>(paced_windows));
    out.Raw("layers", layers.Str());
    out.Raw("self_share", SelfShares(last_log).Str());
    if (!spans_out.empty()) {
      WriteSpans(spans_out, last_log);
    }
  }
  out.Add("attempted", static_cast<double>(attempted));
  out.Add("failed", static_cast<double>(failed));
  out.Add("peak_rss_mb", PeakRssMb());
  out.AddBool("correct", checks.all);
  out.Raw("checks", checks.json.Str());
  out.Raw("fingerprint", Fingerprint());
  std::printf("%s\n", out.Str().c_str());
  return checks.all ? 0 : 1;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  pipebench::g_main_ns = pipebench::g_clock.NowNs();
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "pipebench: unexpected argument '%s'\n", argv[i]);
      return 2;
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || args.count("workload") == 0 || args.count("seed") == 0) {
    std::fprintf(stderr,
                 "usage: pipebench --workload NAME --seed N [--mode e2e|traced] "
                 "[--spans-out FILE]\n");
    return 2;
  }
  const std::string mode = args.count("mode") != 0 ? args["mode"] : "e2e";
  if (mode != "e2e" && mode != "traced") {
    std::fprintf(stderr, "pipebench: unknown mode '%s'\n", mode.c_str());
    return 2;
  }
  return pipebench::Run(args["workload"], std::strtoull(args["seed"].c_str(), nullptr, 10),
                        mode == "traced", args.count("spans-out") != 0 ? args["spans-out"] : "");
}
