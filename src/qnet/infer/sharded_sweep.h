// Colored sharded sweep scheduler: intra-chain parallelism for one Gibbs chain.
//
// The single-site moves of a sweep touch only bounded footprints of the event graph
// (EventLog::ComputeMoveFootprint), so moves with disjoint footprints commute. The
// scheduler colors the sweep's conflict graph once per trace (model/conflict.h), then
// executes each sweep as: color classes in sequence, and within a class the moves split
// round-robin across S logical shards that run in parallel.
//
// Threading: the scheduler owns a WorkerPool (infer/thread_pool.h) created once at
// construction, whose workers park between sweeps (a sweep is ~100 microseconds of work —
// spawning threads per sweep would cost as much as the sweep itself). The caller
// participates as participant 0; a reusable std::barrier separates color classes. With
// threads == 1 there are no workers and no barrier, and Run is a plain sequential loop.
//
// Determinism contract (mirrors the PR-1 multi-chain contract):
//  * bucket (color c, shard s) of a sweep with seed w consumes its own xoshiro stream
//    seeded MixSeed(MixSeed(w, c), s) — a pure function of (w, c, s), never of timing;
//  * the move -> (color, shard) assignment is frozen at Rebuild (round-robin by rank
//    within the color class), so which stream samples which move never changes;
//  * threads only decide which CPU runs a bucket; results are bit-identical for every
//    thread count, including 1. After the pool is warm, Run performs zero heap
//    allocations for any thread count (the per-move hot-path contract of
//    tests/test_alloc_free.cc), and a same-shaped Rebuild reuses every buffer's capacity
//    (the streaming estimators re-schedule every window).
// Changing `shards` (or the move order) legitimately changes the stream layout and hence
// the sampled values; it does not change the stationary distribution.
//
// Execution granularity: Run applies one move at a time from the bucket's stream;
// RunBuckets hands each non-empty bucket (its move slice plus its stream seed) to the
// caller in one piece, which is what the batched SoA kernel needs to process a bucket in
// SIMD-width tiles. Both walk the identical schedule, so the choice of entry point never
// changes which moves share a bucket.

#ifndef QNET_INFER_SHARDED_SWEEP_H_
#define QNET_INFER_SHARDED_SWEEP_H_

#include <barrier>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "qnet/infer/thread_pool.h"
#include "qnet/model/conflict.h"
#include "qnet/model/event.h"
#include "qnet/support/function_ref.h"
#include "qnet/support/rng.h"

namespace qnet {

struct ShardedSweepOptions {
  // Logical shard count per color class. Part of the determinism contract: results depend
  // on `shards` but never on `threads`.
  std::size_t shards = 4;
  // Worker threads; 0 = hardware concurrency, always clamped to `shards`. Pure wall-clock
  // knob.
  std::size_t threads = 0;
};

class ShardedSweepScheduler {
 public:
  // Resolves shard/thread counts and starts the worker pool; the schedule is empty
  // until Rebuild. Constructing once and Rebuilding per trace is how long-lived callers
  // (streaming windows) amortize both the thread launch and the schedule buffers.
  explicit ShardedSweepScheduler(const ShardedSweepOptions& options = {});
  // Convenience: construct and build the schedule in one step.
  ShardedSweepScheduler(const EventLog& log, std::span<const SweepMove> moves,
                        const ShardedSweepOptions& options = {});

  ShardedSweepScheduler(const ShardedSweepScheduler&) = delete;
  ShardedSweepScheduler& operator=(const ShardedSweepScheduler&) = delete;

  // Colors `moves` against `log`'s link structure and freezes the (color, shard)
  // partition. The coloring reads links only — never times — so the schedule stays valid
  // while a sampler mutates times in place. Must not be called while a sweep is running.
  // Reuses all internal buffers; a same-shaped rebuild allocates nothing once warm.
  void Rebuild(const EventLog& log, std::span<const SweepMove> moves);

  // Executes one sweep, one move at a time. `apply` must be safe to call concurrently on
  // moves with disjoint footprints (MoveKernel::Apply is). `sweep_seed` must change every
  // sweep — the sweep drivers draw it from their chain stream (rng.NextU64()) so sweep
  // seeds form a deterministic sequence per chain.
  void Run(FunctionRef<void(const SweepMove&, Rng&)> apply, std::uint64_t sweep_seed);

  // Executes one sweep at bucket granularity: `run_bucket` receives each non-empty
  // bucket's move slice and its stream seed MixSeed(MixSeed(sweep_seed, color), shard),
  // and must consume that stream deterministically (the batched kernel's lane protocol).
  // Same schedule, same concurrency rules, and the same barrier structure as Run.
  void RunBuckets(FunctionRef<void(std::span<const SweepMove>, std::uint64_t)> run_bucket,
                  std::uint64_t sweep_seed);

  std::size_t NumMoves() const { return schedule_.size(); }
  std::size_t NumColors() const { return num_colors_; }
  std::size_t NumShards() const { return shards_; }
  std::size_t NumThreads() const { return pool_.NumThreads(); }

  // Moves of bucket (color, shard) in execution order — diagnostics and tests.
  std::span<const SweepMove> Bucket(std::size_t color, std::size_t shard) const;

 private:
  void RunBucket(std::size_t color, std::size_t shard,
                 FunctionRef<void(std::span<const SweepMove>, std::uint64_t)> run_bucket,
                 std::uint64_t sweep_seed) const;
  // One sweep's worth of work for participant t: its shards of every color class, with
  // the class barrier after each. A participant whose bucket throws skips its remaining
  // buckets but keeps arriving at the barriers, so the others never deadlock; it
  // rethrows once the sweep is over and the pool surfaces the first error by participant.
  void RunParticipant(std::size_t t,
                      FunctionRef<void(std::span<const SweepMove>, std::uint64_t)> run_bucket,
                      std::uint64_t sweep_seed);

  std::size_t shards_;
  std::size_t num_colors_ = 0;
  std::vector<SweepMove> schedule_;          // moves grouped by (color, shard)
  std::vector<std::size_t> bucket_offsets_;  // num_colors_ * shards_ + 1 entries

  // Rebuild scratch, kept as members so per-trace rescheduling reuses capacity.
  ColoringScratch coloring_scratch_;
  MoveColoring coloring_;
  std::vector<std::size_t> rank_in_class_;
  std::vector<std::size_t> bucket_of_;
  std::vector<std::size_t> cursor_;

  // Class barrier over the pool's participants (threads > 1 only). The pool's check-in,
  // not the last class barrier, ends a sweep: a schedule can have zero color classes, and
  // Rebuild may change the class count before a late worker has read it.
  std::optional<std::barrier<>> class_barrier_;
  WorkerPool pool_;
};

}  // namespace qnet

#endif  // QNET_INFER_SHARDED_SWEEP_H_
