#include "qnet/stream/window_fitter.h"

#include <algorithm>

#include "qnet/infer/stem.h"
#include "qnet/support/rng.h"

namespace qnet {

WindowFitter::WindowFitter(const StreamingEstimatorOptions& options,
                           std::vector<double> init_rates, std::uint64_t seed,
                           bool salted, std::uint64_t lane)
    : options_(options),
      chain_(std::move(init_rates), seed, options.window_local_arrival_rate, salted,
             lane),
      mean_field_(options.mean_field) {
  if (options_.stem.gibbs.batched || options_.stem.sharded_sweeps) {
    ShardedSweepOptions cache_options;
    if (options_.stem.sharded_sweeps) {
      cache_options = options_.stem.sharded;
    } else {
      cache_options.shards = 1;
      cache_options.threads = 1;
    }
    scheduler_cache_ = std::make_unique<ShardedSweepScheduler>(cache_options);
  }
}

WindowFit WindowFitter::Fit(const EventLog& log, const Observation& obs,
                            std::size_t window_index, bool merged_tail, double t0,
                            std::size_t window_tasks) {
  WindowFit fit;
  const FastPathMode mode = options_.fast_path;
  // A log that misses a queue cannot feed StEM: kDegrade answers it with the mean-field
  // fit, kOff and kWarmStart skip it. kMeanFieldOnly never runs StEM, so never looks.
  bool missing_queue = false;
  if (mode != FastPathMode::kMeanFieldOnly) {
    const std::vector<std::size_t> counts = log.PerQueueCount();
    missing_queue = std::find(counts.begin(), counts.end(), 0u) != counts.end();
  }
  if (missing_queue && mode != FastPathMode::kDegrade) {
    return fit;  // kSkipped
  }
  // The degrade trigger is the GLOBAL window task count — a pure function of the
  // stream, so the same windows degrade at any lane count.
  const bool mean_field_only =
      mode == FastPathMode::kMeanFieldOnly ||
      (mode == FastPathMode::kDegrade &&
       (window_tasks > options_.degrade_task_budget || missing_queue));

  WindowFitChain::Plan plan = chain_.PlanFit(window_index, merged_tail, t0);
  if (mode != FastPathMode::kOff) {
    // The window's mean-field fit: the warm start (queues without events keep the
    // chain's previous rates) and, when degraded, the estimate itself.
    mean_field_.Fit(log, obs, plan.arrival_time_origin, mf_fit_);
    for (std::size_t q = 0; q < plan.warm_start.size(); ++q) {
      if (mf_fit_.fitted[q] != 0) {
        plan.warm_start[q] = mf_fit_.rates[q];
      }
    }
  }
  if (mean_field_only) {
    chain_.Complete(plan.warm_start);
    fit.kind = WindowFitKind::kMeanField;
    fit.rates = std::move(plan.warm_start);
    fit.mean_wait = mf_fit_.mean_wait;
    return fit;
  }
  StemOptions stem = options_.stem;
  stem.arrival_time_origin = plan.arrival_time_origin;
  stem.scheduler_cache = scheduler_cache_.get();
  const StemEstimator estimator(stem);
  Rng rng(plan.seed);
  StemResult result = estimator.Run(log, obs, std::move(plan.warm_start), rng);
  chain_.Complete(result.rates);
  fit.kind = WindowFitKind::kStem;
  fit.rates = std::move(result.rates);
  fit.mean_wait = std::move(result.mean_wait);
  fit.iterations = result.iterations_run;
  return fit;
}

void CheckWindowFittable(bool fittable, double t0, double t1) {
  QNET_CHECK(fittable, "window [", t0, ", ", t1,
             ") has no fittable log: it misses a queue (in a fleet, every lane's share "
             "does), and StEM cannot estimate a rate with no events");
}

}  // namespace qnet
