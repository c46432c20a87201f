#include "support/chunk_pool.h"

#include <pthread.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace cgp::support {

namespace {

class ChunkPool {
 public:
  /// The process's pool. Never destroyed: its threads may outlive main().
  static ChunkPool& get() {
    static ChunkPool* pool = [] {
      pthread_atfork(&prepare, &resume, &resume);
      return new ChunkPool;
    }();
    return *pool;
  }

  void run(int n, const std::function<void(int)>& task) {
    std::lock_guard turn(turn_);
    std::unique_lock lock(mutex_);
    try {
      // A new thread waits for the generation after the current one.
      while (static_cast<int>(threads_.size()) < n - 1) {
        threads_.emplace_back(&ChunkPool::work, this,
                              static_cast<int>(threads_.size()) + 1,
                              generation_);
      }
    } catch (const std::system_error&) {
      // No thread to spare: the calling thread runs the chunks left over.
    }
    const int pooled = std::min(n - 1, static_cast<int>(threads_.size()));
    pooled_ = running_ = pooled;
    task_ = &task;
    ++generation_;
    lock.unlock();
    start_.notify_all();
    task(0);
    for (int c = pooled + 1; c < n; ++c) task(c);
    lock.lock();
    done_.wait(lock, [&] { return running_ == 0; });
  }

 private:
  // Fork waits for a loop in flight and joins the threads, so the process
  // forks with no pool thread (a forked child could not use them, and a
  // child that starts threads after a multi-threaded fork is unsupported
  // under ThreadSanitizer). Both sides start threads again on demand.
  static void prepare() {
    ChunkPool& pool = get();
    pool.turn_.lock();
    {
      std::lock_guard lock(pool.mutex_);
      pool.stopping_ = true;
    }
    pool.start_.notify_all();
    for (std::thread& t : pool.threads_) t.join();
    pool.threads_.clear();
    pool.stopping_ = false;
  }
  static void resume() { get().turn_.unlock(); }

  void work(int id, std::uint64_t seen) {
    std::unique_lock lock(mutex_);
    while (true) {
      start_.wait(lock, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
      if (id > pooled_) continue;
      const std::function<void(int)>& task = *task_;
      lock.unlock();
      task(id);
      lock.lock();
      if (--running_ == 0) done_.notify_one();
    }
  }

  std::mutex turn_;  // held for a whole loop, and across fork
  std::vector<std::thread> threads_;  // thread k runs chunk k + 1
  std::mutex mutex_;
  std::condition_variable start_;
  std::condition_variable done_;
  bool stopping_ = false;
  std::uint64_t generation_ = 0;
  // The current loop: chunks 1..pooled_ run on pool threads.
  const std::function<void(int)>* task_ = nullptr;
  int pooled_ = 0;
  int running_ = 0;
};

}  // namespace

void run_chunks(int n, const std::function<void(int)>& task) {
  ChunkPool::get().run(n, task);
}

}  // namespace cgp::support
