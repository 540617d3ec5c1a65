#include "qnet/infer/gibbs.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "qnet/support/check.h"
#include "qnet/support/logspace.h"

namespace qnet {

GibbsSampler::GibbsSampler(EventLog state, const Observation& obs, std::vector<double> rates,
                           GibbsOptions options)
    : state_(std::move(state)), rates_(std::move(rates)), options_(options) {
  obs.Validate(state_);
  QNET_CHECK(rates_.size() == static_cast<std::size_t>(state_.NumQueues()),
             "rates size mismatch");
  std::string why;
  QNET_CHECK(state_.IsFeasible(1e-6, &why), "initial Gibbs state infeasible: ", why);
  num_arrival_moves_ = CollectLatentMoves(state_, obs, moves_);
}

void GibbsSampler::SetRates(const std::vector<double>& rates) {
  QNET_CHECK(rates.size() == rates_.size(), "rates size mismatch");
  for (double r : rates) {
    QNET_CHECK(r > 0.0, "rates must be positive");
  }
  std::copy(rates.begin(), rates.end(), rates_.begin());
}

ShardedSweepScheduler* GibbsSampler::EffectiveScheduler(bool build_batch_schedule) {
  if (external_scheduler_ != nullptr) {
    return external_scheduler_;
  }
  if (scheduler_ != nullptr) {
    return scheduler_.get();
  }
  if (!build_batch_schedule) {
    return nullptr;
  }
  if (batch_scheduler_ == nullptr) {
    ShardedSweepOptions options;
    options.shards = 1;
    options.threads = 1;
    batch_scheduler_ = std::make_unique<ShardedSweepScheduler>(state_, ScanMoves(), options);
  }
  return batch_scheduler_.get();
}

void GibbsSampler::Sweep(Rng& rng) {
  const std::span<double> cache(service_cache_);
  if (options_.batched && !options_.shuffle_scan) {
    ShardedSweepScheduler* scheduler = EffectiveScheduler(/*build_batch_schedule=*/true);
    const BatchedExponentialMoveKernel kernel(rates_, options_.batch_width, cache);
    if (options_.batched_reference) {
      scheduler->RunBuckets(
          [&](std::span<const SweepMove> bucket, std::uint64_t bucket_seed) {
            kernel.RunBucketReference(state_, bucket, bucket_seed);
          },
          rng.NextU64());
    } else {
      scheduler->RunBuckets(
          [&](std::span<const SweepMove> bucket, std::uint64_t bucket_seed) {
            kernel.RunBucket(state_, bucket, bucket_seed);
          },
          rng.NextU64());
    }
    return;
  }
  const ExponentialMoveKernel kernel(rates_, cache);
  ShardedSweepScheduler* scheduler = EffectiveScheduler(/*build_batch_schedule=*/false);
  if (scheduler != nullptr) {
    scheduler->Run(
        [&](const SweepMove& move, Rng& move_rng) { kernel.Apply(state_, move, move_rng); },
        rng.NextU64());
    return;
  }
  // Systematic scans iterate the move lists in place; only the shuffled scan needs a
  // mutable copy, and scan_buffer_ persists across sweeps so the copy reuses its capacity
  // after the first sweep (no per-sweep allocation either way).
  std::span<const SweepMove> scan = ArrivalMoves();
  if (options_.shuffle_scan) {
    scan_buffer_.assign(scan.begin(), scan.end());
    rng.Shuffle(scan_buffer_);
    scan = scan_buffer_;
  }
  RunSweep(state_, scan, kernel, rng);
  if (options_.resample_final_departures) {
    scan = FinalMoves();
    if (options_.shuffle_scan) {
      scan_buffer_.assign(scan.begin(), scan.end());
      rng.Shuffle(scan_buffer_);
      scan = scan_buffer_;
    }
    RunSweep(state_, scan, kernel, rng);
  }
}

void GibbsSampler::EnableShardedSweeps(const ShardedSweepOptions& options) {
  QNET_CHECK(!options_.shuffle_scan,
             "sharded sweeps are incompatible with shuffle_scan: the colored schedule is "
             "frozen per trace");
  scheduler_ = std::make_unique<ShardedSweepScheduler>(state_, ScanMoves(), options);
}

void GibbsSampler::UseScheduler(ShardedSweepScheduler* scheduler) {
  if (scheduler != nullptr) {
    QNET_CHECK(!options_.shuffle_scan,
               "sharded sweeps are incompatible with shuffle_scan: the colored schedule is "
               "frozen per trace");
    scheduler->Rebuild(state_, ScanMoves());
  }
  external_scheduler_ = scheduler;
}

void GibbsSampler::EnableSuffStatsTracking() {
  service_cache_.resize(state_.NumEvents());
  for (EventId e = 0; static_cast<std::size_t>(e) < state_.NumEvents(); ++e) {
    service_cache_[static_cast<std::size_t>(e)] = state_.ServiceTime(e);
  }
}

void GibbsSampler::PerQueueServiceSumsInto(std::span<double> sums) const {
  QNET_CHECK(SuffStatsTrackingEnabled(), "EnableSuffStatsTracking first");
  QNET_CHECK(sums.size() == rates_.size(), "sums size mismatch");
  std::fill(sums.begin(), sums.end(), 0.0);
  for (EventId e = 0; static_cast<std::size_t>(e) < state_.NumEvents(); ++e) {
    sums[static_cast<std::size_t>(state_.AtUnchecked(e).queue)] +=
        service_cache_[static_cast<std::size_t>(e)];
  }
}

std::vector<SweepMove> GibbsSampler::SweepMoves() const {
  const std::span<const SweepMove> moves = ScanMoves();
  return {moves.begin(), moves.end()};
}

double GibbsSampler::LogJointExponential() const {
  double total = 0.0;
  for (EventId e = 0; static_cast<std::size_t>(e) < state_.NumEvents(); ++e) {
    const double mu = rates_[static_cast<std::size_t>(state_.At(e).queue)];
    total += std::log(mu) - mu * std::max(state_.ServiceTime(e), 0.0);
  }
  return total;
}

}  // namespace qnet
