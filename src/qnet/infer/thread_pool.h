// The library's one thread model: a persistent fork-join pool.
//
// A WorkerPool holds T - 1 workers parked on a condition variable between calls; the
// caller is participant 0. Run(items, work) runs work(i) on participant i mod T — a static
// partition, so the work assignment (and any per-item RNG stream consumption) is a pure
// function of (items, T), never of scheduling. Run returns only after every worker has
// checked back in, so a caller may rebuild whatever the call read as soon as it returns.
// A participant stops at its first exception, and the first one by participant index is
// rethrown, so a QNET_CHECK failure inside a worker surfaces to the caller. Run allocates
// nothing after construction; with T == 1 it is a plain loop on the caller.
//
// Each parallel component owns its own pool — the sharded-sweep scheduler and the
// scenario engine for their lifetime, parallel chains and the fleet's Run() per call —
// and there is no process-wide pool, so nested parallelism (a lane or a chain driving a
// sharded sweep) never waits on a pool it is running on.

#ifndef QNET_INFER_THREAD_POOL_H_
#define QNET_INFER_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "qnet/support/function_ref.h"

namespace qnet {

// Resolves a thread-count option: 0 means the hardware concurrency (at least 1); any
// other value is returned unchanged.
std::size_t ResolveThreadCount(std::size_t requested);

class WorkerPool {
 public:
  // `threads` participants (clamped to at least 1), i.e. threads - 1 parked workers.
  explicit WorkerPool(std::size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t NumThreads() const { return workers_.size() + 1; }

  // Runs work(i) for every i in [0, items), item i on participant i mod NumThreads().
  // One caller at a time; `work` must not call Run on this pool.
  void Run(std::size_t items, FunctionRef<void(std::size_t)> work);

 private:
  // Participant t's share of the current call; its first exception parks in errors_[t].
  void RunShare(std::size_t t);
  void WorkerLoop(std::size_t t);

  // Run publishes {work_, items_} and bumps generation_ under mu_; parked workers wake,
  // run their share, and decrement inflight_workers_; the caller waits on done_cv_ for
  // it to reach zero before returning.
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  std::size_t inflight_workers_ = 0;
  bool stop_ = false;
  const FunctionRef<void(std::size_t)>* work_ = nullptr;
  std::size_t items_ = 0;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> workers_;
};

}  // namespace qnet

#endif  // QNET_INFER_THREAD_POOL_H_
