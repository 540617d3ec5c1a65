#include "qnet/stream/streaming_estimator.h"

#include <utility>

#include "qnet/stream/window_fitter.h"
#include "qnet/support/stopwatch.h"

namespace qnet {

WindowFitChain::Plan WindowFitChain::PlanFit(std::size_t window_index, bool merged_tail,
                                             double t0) {
  Plan plan;
  const std::uint64_t window_seed = MixSeed(seed_, window_index);
  plan.seed = salted_ ? MixSeed(window_seed, lane_) : window_seed;
  if (merged_tail) {
    // The re-fit replaces the previous window's estimate, so it must start from the same
    // rates that window's first fit did.
    plan.warm_start = prev_input_rates_;
  } else {
    plan.warm_start = rates_;
    prev_input_rates_ = rates_;
  }
  plan.arrival_time_origin = window_local_ ? t0 : 0.0;
  return plan;
}

StreamingEstimator::StreamingEstimator(std::vector<double> init_rates, std::uint64_t seed,
                                       const StreamingEstimatorOptions& options)
    : init_rates_(std::move(init_rates)), seed_(seed), options_(options) {}

std::vector<WindowEstimate> StreamingEstimator::Run(TraceStream& stream) {
  stats_ = StreamingStats{};
  Stopwatch total;
  WindowAssembler assembler(stream.NumQueues(), options_.window);
  WindowFitter fitter(options_, init_rates_, seed_);
  std::vector<WindowEstimate> estimates;

  // Fit each closed window as it closes and emit its estimate at once.
  const auto process = [&](ClosedWindow&& window) {
    WindowFit fit = fitter.Fit(window.log, window.obs, window.window_index,
                               window.merged_tail_tasks > 0, window.t0, window.num_tasks);
    CheckWindowFittable(fit.kind != WindowFitKind::kSkipped, window.t0, window.t1);
    WindowEstimate estimate;
    estimate.t0 = window.t0;
    estimate.t1 = window.t1;
    estimate.tasks = window.num_tasks;
    estimate.merged_tail_tasks = window.merged_tail_tasks;
    estimate.window_local_arrival_rate = options_.window_local_arrival_rate;
    estimate.degraded = fit.kind == WindowFitKind::kMeanField;
    estimate.fit_iterations = fit.iterations;
    estimate.rates = std::move(fit.rates);
    estimate.mean_wait = std::move(fit.mean_wait);
    EmitWindow(std::move(estimate), estimates, stats_, options_.on_window);
  };

  TaskRecord record;
  while (stream.Next(record)) {
    assembler.Push(record);
    while (assembler.HasClosed()) {
      process(assembler.PopClosed());
    }
  }
  assembler.FinishStream();
  while (assembler.HasClosed()) {
    process(assembler.PopClosed());
  }

  const WindowAssemblerStats astats = assembler.Stats();
  stats_.tasks_ingested = astats.tasks_ingested;
  stats_.late_dropped = astats.late_dropped;
  stats_.tail_dropped = astats.tail_dropped;
  stats_.peak_buffered_tasks = astats.peak_buffered_tasks;
  stats_.total_wall_seconds = total.ElapsedSeconds();
  stats_.tasks_per_second = stats_.total_wall_seconds > 0.0
                                ? static_cast<double>(stats_.tasks_ingested) /
                                      stats_.total_wall_seconds
                                : 0.0;
  return estimates;
}

}  // namespace qnet
