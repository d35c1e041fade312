#include "runtime/thread_pool.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/parallel.hpp"

namespace wcm::runtime {

ThreadPool::ThreadPool(u32 threads) {
  WCM_EXPECTS(threads >= 1, "a thread pool needs at least one worker");
  workers_.reserve(threads);
  for (u32 i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  WCM_EXPECTS(task != nullptr, "cannot submit an empty task");
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  no_nested_fan_out();  // pool workers already fill the host's cores
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping_ and drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

u32 recommended_workers(u32 requested, const gpusim::Device& dev,
                        u32 threads_per_block,
                        std::size_t shared_bytes_per_block) {
  if (requested > 0) {
    return requested;
  }
  const u32 host = std::max(1u, std::thread::hardware_concurrency());
  const gpusim::Occupancy occ =
      gpusim::occupancy(dev, threads_per_block, shared_bytes_per_block);
  if (occ.resident_blocks == 0) {
    return 1;  // launch does not fit; let validation report it
  }
  const u32 device_parallelism = occ.resident_blocks * dev.sm_count;
  return std::max(1u, std::min(host, device_parallelism));
}

}  // namespace wcm::runtime
