#include "qnet/infer/sharded_sweep.h"

#include <algorithm>
#include <exception>

#include "qnet/support/check.h"
#include "qnet/telemetry/metrics.h"
#include "qnet/telemetry/timeline.h"

namespace qnet {

ShardedSweepScheduler::ShardedSweepScheduler(const ShardedSweepOptions& options)
    : shards_(std::max<std::size_t>(1, options.shards)),
      pool_(std::min(ResolveThreadCount(options.threads), shards_)) {
  bucket_offsets_.assign(1, 0);
  if (pool_.NumThreads() > 1) {
    class_barrier_.emplace(static_cast<std::ptrdiff_t>(pool_.NumThreads()));
  }
}

ShardedSweepScheduler::ShardedSweepScheduler(const EventLog& log,
                                             std::span<const SweepMove> moves,
                                             const ShardedSweepOptions& options)
    : ShardedSweepScheduler(options) {
  Rebuild(log, moves);
}

void ShardedSweepScheduler::Rebuild(const EventLog& log, std::span<const SweepMove> moves) {
  ColorSweepMovesInto(log, moves, coloring_scratch_, coloring_);
  num_colors_ = static_cast<std::size_t>(coloring_.num_colors);

  // Counting sort of the moves into (color, shard) buckets; within a bucket moves keep
  // their class-rank order, so the schedule is a pure function of (moves, shards).
  const std::size_t buckets = num_colors_ * shards_;
  bucket_offsets_.assign(buckets + 1, 0);
  rank_in_class_.assign(num_colors_, 0);
  bucket_of_.resize(moves.size());
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const auto c = static_cast<std::size_t>(coloring_.color[i]);
    const std::size_t s = rank_in_class_[c]++ % shards_;
    bucket_of_[i] = c * shards_ + s;
    ++bucket_offsets_[bucket_of_[i] + 1];
  }
  for (std::size_t b = 0; b < buckets; ++b) {
    bucket_offsets_[b + 1] += bucket_offsets_[b];
  }
  schedule_.resize(moves.size());
  cursor_.assign(bucket_offsets_.begin(), bucket_offsets_.end() - 1);
  for (std::size_t i = 0; i < moves.size(); ++i) {
    schedule_[cursor_[bucket_of_[i]]++] = moves[i];
  }
}

std::span<const SweepMove> ShardedSweepScheduler::Bucket(std::size_t color,
                                                         std::size_t shard) const {
  QNET_CHECK(color < num_colors_ && shard < shards_, "bucket out of range: color=", color,
             " shard=", shard);
  const std::size_t b = color * shards_ + shard;
  return {schedule_.data() + bucket_offsets_[b], bucket_offsets_[b + 1] - bucket_offsets_[b]};
}

void ShardedSweepScheduler::Run(FunctionRef<void(const SweepMove&, Rng&)> apply,
                                std::uint64_t sweep_seed) {
  // Per-move execution is the bucket-granular loop with the bucket's stream threaded
  // through its moves in order — the historical semantics, bit for bit.
  const auto per_move = [&apply](std::span<const SweepMove> bucket, std::uint64_t seed) {
    Rng rng(seed);
    for (const SweepMove& move : bucket) {
      apply(move, rng);
    }
  };
  RunBuckets(FunctionRef<void(std::span<const SweepMove>, std::uint64_t)>(per_move),
             sweep_seed);
}

void ShardedSweepScheduler::RunBuckets(
    FunctionRef<void(std::span<const SweepMove>, std::uint64_t)> run_bucket,
    std::uint64_t sweep_seed) {
  SweepCounters::Get().sweeps->Increment();
  SweepCounters::Get().moves->Add(schedule_.size());
  pool_.Run(pool_.NumThreads(),
            [&](std::size_t t) { RunParticipant(t, run_bucket, sweep_seed); });
}

void ShardedSweepScheduler::RunParticipant(
    std::size_t t, FunctionRef<void(std::span<const SweepMove>, std::uint64_t)> run_bucket,
    std::uint64_t sweep_seed) {
  const std::size_t threads = pool_.NumThreads();
  std::exception_ptr error;
  for (std::size_t c = 0; c < num_colors_; ++c) {
    if (!error) {
      try {
        // Per-participant share of the color class; the span ends before the class
        // barrier, so barrier wait shows up as the gap between color spans in a trace.
        ScopedSpan color_span(SpanStage::kSweepColor);
        for (std::size_t s = t; s < shards_; s += threads) {
          RunBucket(c, s, run_bucket, sweep_seed);
        }
      } catch (...) {
        error = std::current_exception();
      }
    }
    if (class_barrier_) {
      class_barrier_->arrive_and_wait();
    }
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

void ShardedSweepScheduler::RunBucket(
    std::size_t color, std::size_t shard,
    FunctionRef<void(std::span<const SweepMove>, std::uint64_t)> run_bucket,
    std::uint64_t sweep_seed) const {
  const std::size_t b = color * shards_ + shard;
  const std::size_t begin = bucket_offsets_[b];
  const std::size_t end = bucket_offsets_[b + 1];
  if (begin == end) {
    return;
  }
  ScopedSpan bucket_span(SpanStage::kSweepBucket);
  run_bucket({schedule_.data() + begin, end - begin}, MixSeed(MixSeed(sweep_seed, color), shard));
}

}  // namespace qnet
