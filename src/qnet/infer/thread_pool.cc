#include "qnet/infer/thread_pool.h"

#include <algorithm>

namespace qnet {

std::size_t ResolveThreadCount(std::size_t requested) {
  if (requested != 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

WorkerPool::WorkerPool(std::size_t threads) {
  const std::size_t participants = std::max<std::size_t>(1, threads);
  errors_.assign(participants, nullptr);
  workers_.reserve(participants - 1);
  for (std::size_t t = 1; t < participants; ++t) {
    workers_.emplace_back([this, t] { WorkerLoop(t); });
  }
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void WorkerPool::Run(std::size_t items, FunctionRef<void(std::size_t)> work) {
  if (workers_.empty()) {
    for (std::size_t i = 0; i < items; ++i) {
      work(i);
    }
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    work_ = &work;
    items_ = items;
    inflight_workers_ = workers_.size();
    ++generation_;
  }
  cv_.notify_all();
  RunShare(0);
  {
    // The check-in: no worker may still read work_ (it dies with this call) after Run.
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return inflight_workers_ == 0; });
    work_ = nullptr;
  }
  std::exception_ptr first;
  for (std::exception_ptr& error : errors_) {
    if (!first) {
      first = error;
    }
    error = nullptr;
  }
  if (first) {
    std::rethrow_exception(first);
  }
}

void WorkerPool::RunShare(std::size_t t) {
  const std::size_t threads = NumThreads();
  try {
    for (std::size_t i = t; i < items_; i += threads) {
      (*work_)(i);
    }
  } catch (...) {
    errors_[t] = std::current_exception();
  }
}

void WorkerPool::WorkerLoop(std::size_t t) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) {
        return;
      }
      seen = generation_;
    }
    RunShare(t);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (--inflight_workers_ == 0) {
        done_cv_.notify_one();
      }
    }
  }
}

}  // namespace qnet
