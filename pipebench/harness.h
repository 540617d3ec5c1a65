// Measurement harness of the streaming-inference benchmark: the paced open-loop
// generator, window latency accounting, the percentile rule, rate error against ground
// truth, and the span log of the traced run. Everything here is library-agnostic
// bookkeeping so that harness_test.cc can pin it with synthetic inputs.

#ifndef PIPEBENCH_HARNESS_H_
#define PIPEBENCH_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "qnet/stream/streaming_estimator.h"
#include "qnet/stream/task_record.h"

namespace pipebench {

// Global operator-new calls so far; the driver binary replaces operator new to bump
// it, other binaries leave it at zero.
inline std::atomic<std::uint64_t> g_allocations{0};
inline std::uint64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

// Monotonic clock the paced generator waits on; tests substitute a manual one.
class PaceClock {
 public:
  virtual ~PaceClock() = default;
  virtual std::int64_t NowNs() = 0;
  // Returns once NowNs() >= due_ns.
  virtual void WaitUntil(std::int64_t due_ns) = 0;
};

class SteadyPaceClock final : public PaceClock {
 public:
  std::int64_t NowNs() override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  // Sleeps while the due time is far, spins the last stretch: sleep wake-ups overshoot
  // by tens of microseconds, which would read as generator lateness.
  void WaitUntil(std::int64_t due_ns) override {
    constexpr std::int64_t kSpinNs = 200'000;
    for (std::int64_t now = NowNs(); now < due_ns; now = NowNs()) {
      if (due_ns - now > kSpinNs) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now - kSpinNs / 2));
      }
    }
  }
};

// Open-loop generator: wraps a TraceStream and hands record r to the consumer no
// earlier than its due time start + (entry_time(r) - entry_time(first)) / speedup,
// where `start` is the first Next call. A consumer that falls behind gets the record
// immediately (the generator never sleeps when it is behind) and the record counts as
// late by now - due.
class PacedStream final : public qnet::TraceStream {
 public:
  PacedStream(qnet::TraceStream& inner, double speedup, PaceClock& clock)
      : inner_(&inner), speedup_(speedup), clock_(&clock) {}

  bool Next(qnet::TaskRecord& out) override {
    if (!inner_->Next(out)) {
      if (end_ns_ < 0) {
        end_ns_ = clock_->NowNs();
      }
      return false;
    }
    if (entries_.empty()) {
      start_ns_ = clock_->NowNs();
      first_entry_ = out.entry_time;
    }
    const std::int64_t due = DueNs(out.entry_time);
    clock_->WaitUntil(due);
    lateness_ns_.push_back(std::max<std::int64_t>(0, clock_->NowNs() - due));
    entries_.push_back(out.entry_time);
    return true;
  }
  int NumQueues() const override { return inner_->NumQueues(); }

  std::int64_t DueNs(double entry_time) const {
    return start_ns_ +
           static_cast<std::int64_t>((entry_time - first_entry_) / speedup_ * 1e9);
  }
  // Due time of the first record handed over with entry_time >= t, i.e. of the record
  // that closes a window ending at t; the end-of-stream time when no such record came
  // (the final window closes at end of stream).
  std::int64_t CloseDueNs(double t) const {
    const auto it = std::lower_bound(entries_.begin(), entries_.end(), t);
    return it == entries_.end() ? end_ns_ : DueNs(*it);
  }
  // Per handed-over record: how long after its due time it was handed over (0 when on
  // time).
  const std::vector<std::int64_t>& LatenessNs() const { return lateness_ns_; }

 private:
  qnet::TraceStream* inner_;
  double speedup_;
  PaceClock* clock_;
  std::int64_t start_ns_ = 0;
  std::int64_t end_ns_ = -1;
  double first_entry_ = 0.0;
  std::vector<double> entries_;  // nondecreasing (TraceStream order)
  std::vector<std::int64_t> lateness_ns_;
};

// Window latency: from the due time of the record that closed the window to the moment
// on_window delivered its estimate. A merged-tail re-fit replaces a window that was
// already delivered, so only first deliveries are samples.
class WindowLatencyRecorder {
 public:
  WindowLatencyRecorder(const PacedStream& stream, PaceClock& clock)
      : stream_(&stream), clock_(&clock) {}

  void OnWindow(const qnet::WindowEstimate& estimate) {
    if (estimate.merged_tail_tasks > 0) {
      return;
    }
    latencies_ms_.push_back(
        static_cast<double>(clock_->NowNs() - stream_->CloseDueNs(estimate.t1)) / 1e6);
  }
  const std::vector<double>& LatenciesMs() const { return latencies_ms_; }

 private:
  const PacedStream* stream_;
  PaceClock* clock_;
  std::vector<double> latencies_ms_;
};

// Nearest-rank percentile: the smallest sample with at least q * n samples at or below
// it. Requires a nonempty sample.
inline double Percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n - 1e-9)));
  return values[std::min(rank, values.size()) - 1];
}

inline double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

// Samples strictly above the nearest-rank q-percentile position.
inline std::size_t SamplesBeyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(n) - 1e-9)));
  return n > rank ? n - rank : 0;
}

// A percentile is reported only when at least this many samples lie beyond it.
inline constexpr std::size_t kMinSamplesBeyond = 10;

inline bool SupportsPercentile(std::size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

// True service rate of queue q over the window [t0, t1), or NaN when the window is not
// inside one stationary segment of the ground truth.
using TrueRateFn = std::function<double(int queue, double t0, double t1)>;

// Median over windows and service queues (q >= 1) of |estimate / truth - 1|, over the
// (window, queue) pairs the truth covers. NaN when it covers none.
inline double RateRelError(const std::vector<qnet::WindowEstimate>& estimates,
                           const TrueRateFn& truth) {
  std::vector<double> errors;
  for (const qnet::WindowEstimate& e : estimates) {
    for (std::size_t q = 1; q < e.rates.size(); ++q) {
      const double true_rate = truth(static_cast<int>(q), e.t0, e.t1);
      if (std::isfinite(true_rate)) {
        errors.push_back(std::abs(e.rates[q] / true_rate - 1.0));
      }
    }
  }
  return errors.empty() ? std::numeric_limits<double>::quiet_NaN() : Median(errors);
}

// In-memory span log of the traced run (one thread). Spans nest strictly: each span's
// parent is the innermost span open when it began. `request` is the window index the
// span works for (-1 when it serves no single window).
struct Span {
  int name = 0;
  int parent = -1;
  std::int64_t request = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t allocs_start = 0;
  std::uint64_t allocs_end = 0;
};

class SpanLog {
 public:
  explicit SpanLog(PaceClock& clock) : clock_(&clock) {}

  int Begin(int name, std::int64_t request) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    span.allocs_start = AllocationCount();
    span.start_ns = clock_->NowNs();
    spans_.push_back(span);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_ns = clock_->NowNs();
    span.allocs_end = AllocationCount();
    open_.pop_back();
  }
  // Renames an open or closed span (e.g. once it is known what the call did).
  void Rename(int id, int name) { spans_[static_cast<std::size_t>(id)].name = name; }

  const std::vector<Span>& Spans() const { return spans_; }

  // Per span name: total self time (duration minus the time its child spans cover),
  // self allocations, and span count. Indexed by name, sized to `names`.
  struct SelfTotals {
    std::vector<double> self_ns;
    std::vector<double> self_allocs;
    std::vector<std::size_t> count;
  };
  SelfTotals Totals(int names) const {
    SelfTotals t{std::vector<double>(names), std::vector<double>(names),
                 std::vector<std::size_t>(names)};
    std::vector<double> child_ns(spans_.size());
    std::vector<double> child_allocs(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
        child_allocs[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.allocs_end - s.allocs_start);
      }
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      t.self_ns[s.name] += static_cast<double>(s.end_ns - s.start_ns) - child_ns[i];
      t.self_allocs[s.name] += static_cast<double>(s.allocs_end - s.allocs_start) - child_allocs[i];
      ++t.count[s.name];
    }
    return t;
  }

  // Durations (microseconds) of every span named `name`.
  std::vector<double> DurationsUs(int name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
    return out;
  }

 private:
  PaceClock* clock_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span for the traced run.
class ScopedTrace {
 public:
  ScopedTrace(SpanLog& log, int name, std::int64_t request)
      : log_(&log), id_(log.Begin(name, request)) {}
  ~ScopedTrace() { log_->End(id_); }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
  int Id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace pipebench

#endif  // PIPEBENCH_HARNESS_H_
