// The per-window fit and emit steps shared by StreamingEstimator and the sharded
// streaming fleet's lanes (shard/sharded_streaming.h).
//
// WindowFitter owns everything one warm-started chain of window fits needs — the
// WindowFitChain, the scheduler cache reused across the chain's StEM runs, and the
// mean-field estimator with its scratch — and makes the ONE fit decision per window from
// the window's log and its GLOBAL task count:
//
//   kMeanField  the mean-field fit is the estimate (degraded): always under
//               kMeanFieldOnly; under kDegrade when the window exceeds the task budget
//               or its log misses a queue (the chain's rates stand in for that queue);
//   kSkipped    the log misses a queue and the policy cannot degrade (kOff, kWarmStart):
//               StEM cannot estimate a rate with no events, so no fit runs and the
//               chain does not advance;
//   kStem       otherwise: a StEM run, warm-started from the chain (and, under any fast
//               path, from the window's own mean-field fit).
//
// The plain estimator is the single-lane case of the same step, which is what keeps a
// K = 1 fleet bit-identical to it: same decision, same seeds, same warm starts.

#ifndef QNET_STREAM_WINDOW_FITTER_H_
#define QNET_STREAM_WINDOW_FITTER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "qnet/infer/meanfield.h"
#include "qnet/infer/sharded_sweep.h"
#include "qnet/model/event.h"
#include "qnet/obs/observation.h"
#include "qnet/stream/streaming_estimator.h"
#include "qnet/support/check.h"
#include "qnet/telemetry/metrics.h"
#include "qnet/telemetry/timeline.h"

namespace qnet {

enum class WindowFitKind { kStem, kMeanField, kSkipped };

struct WindowFit {
  WindowFitKind kind = WindowFitKind::kSkipped;
  std::vector<double> rates;      // index 0 = lambda; empty when skipped
  std::vector<double> mean_wait;
  std::size_t iterations = 0;     // StEM iterations run (0 unless kStem)
};

class WindowFitter {
 public:
  // `options` must outlive the fitter. `init_rates` warm-starts the first window; seeds
  // follow WindowFitChain's discipline (`salted` + `lane` for lanes of a K >= 2 fleet).
  WindowFitter(const StreamingEstimatorOptions& options, std::vector<double> init_rates,
               std::uint64_t seed, bool salted = false, std::uint64_t lane = 0);

  // Fits the window with emission index `window_index` spanning from `t0`;
  // `window_tasks` is its global task count (the degrade trigger). A merged-tail re-fit
  // passes the replaced window's index and restarts from that window's input.
  WindowFit Fit(const EventLog& log, const Observation& obs, std::size_t window_index,
                bool merged_tail, double t0, std::size_t window_tasks);

 private:
  const StreamingEstimatorOptions& options_;
  WindowFitChain chain_;
  // One scheduler for the whole chain, rebuilt per fit (the chain's fits are strictly
  // sequential, so it is exclusively owned): fits reuse its coloring/bucket buffers and,
  // under sharded sweeps, its worker pool. Null unless a fit would build a scheduler
  // anyway, so a plain sequential configuration keeps its historical stream layout.
  std::unique_ptr<ShardedSweepScheduler> scheduler_cache_;
  MeanFieldEstimator mean_field_;
  MeanFieldFit mf_fit_;
};

// Raises the error of a window no fit can estimate: the plain estimator's skipped fit,
// or a fleet window in which every lane's fit was skipped.
void CheckWindowFittable(bool fittable, double t0, double t1);

// The emit step of both Run() loops: counts the estimate into `stats` (a StreamingStats
// or FleetStats — windows_estimated, degraded_windows, fit_iterations_total) and the
// registry, appends it — or, for a merged-tail re-fit, replaces the last estimate in
// place — and fires `on_window` on the caller's thread.
template <typename Stats>
void EmitWindow(WindowEstimate&& estimate, std::vector<WindowEstimate>& estimates,
                Stats& stats,
                const std::function<void(const WindowEstimate&)>& on_window) {
  ScopedSpan span(SpanStage::kEmit);
  const StreamCounters& counters = StreamCounters::Get();
  stats.fit_iterations_total += estimate.fit_iterations;
  counters.fit_iterations->Add(static_cast<std::uint64_t>(estimate.fit_iterations));
  if (estimate.degraded) {
    ++stats.degraded_windows;
    counters.degraded_windows->Increment();
  }
  if (estimate.merged_tail_tasks > 0) {
    QNET_CHECK(!estimates.empty(), "merged-tail window with no previous estimate");
    estimates.back() = std::move(estimate);
  } else {
    estimates.push_back(std::move(estimate));
    ++stats.windows_estimated;
    counters.windows_estimated->Increment();
  }
  if (on_window) {
    on_window(estimates.back());
  }
}

}  // namespace qnet

#endif  // QNET_STREAM_WINDOW_FITTER_H_
