#pragma once

/// \file harness.hpp
/// Shared machinery of the host benchmark: command-line options, the
/// result record printed as the final JSON line, order statistics,
/// process memory and heap-allocation counters, and the response
/// collector the load generators (loadgen.hpp) are built on.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace harvest {
namespace core {}
namespace data {}
namespace nn {}
namespace obs {}
namespace platform {}
namespace preproc {}
namespace serving {}
namespace sim {}
namespace tensor {}
}  // namespace harvest

namespace perfbench {

namespace core = harvest::core;
namespace data = harvest::data;
namespace nn = harvest::nn;
namespace obs = harvest::obs;
namespace platform = harvest::platform;
namespace preproc = harvest::preproc;
namespace serving = harvest::serving;
namespace sim = harvest::sim;
namespace tensor = harvest::tensor;

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the Chrome trace a traced run writes.
  std::string out_dir = ".bench_build";
};

/// What one run reports: correctness, operation counts, and metrics.
class Result {
 public:
  /// Record a metric (last write of a name wins).
  void metric(const std::string& name, double value, const std::string& unit);
  /// Keep exactly the metrics of `names` (name, unit), in that order,
  /// with the units given there. Names never recorded read 0 when
  /// `zero_fill`; otherwise they are returned.
  std::vector<std::string> select(
      const std::vector<std::pair<std::string, std::string>>& names,
      bool zero_fill);
  /// Count operations of one phase; printed per phase and summed.
  void phase(const std::string& name, std::int64_t attempted,
             std::int64_t failed);
  /// A failed output check: the run is not correct.
  void check(bool ok, const std::string& what);
  /// A check that passed, with the evidence printed beside it.
  void note(const std::string& line);

  bool correct() const { return correct_; }
  /// Human-readable lines, then the JSON object as the very last line.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> lines_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool correct_ = true;
};

double seconds_since(Clock::time_point t0);

/// Linear-interpolated quantile of `values` (copied, q in [0, 1]).
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
double mean(const std::vector<double>& values);

/// The highest order statistic with at least `beyond` samples above it
/// (sorted x[n-1-beyond]); `percent` receives its rank as a percentile.
/// Needs n > beyond; otherwise returns the maximum and percent = 100.
double tail(std::vector<double> values, std::size_t beyond, double* percent);

/// Index of the largest value (first on ties), as greedy sampling and
/// top-1 classification pick it.
std::size_t argmax(const float* values, std::size_t n);

/// Peak resident set size of this process, in MB (2^20 bytes).
double peak_rss_mb();

/// Heap allocations made while `fn` runs, on every thread of the
/// process: global `operator new` (replaced in harness.cpp) plus the
/// tensor buffer allocator's heap path.
std::uint64_t heap_allocations(const std::function<void()>& fn);

/// Run `fn` with this thread's OpenMP team at the runtime's default
/// size, one thread per processor, as the program runs when
/// OMP_NUM_THREADS is unset; restores the previous size.
void with_default_team(const std::function<void()>& fn);

/// Median wall milliseconds of `reps` calls of `fn` after one warm-up.
double time_ms(int reps, const std::function<void()>& fn);

/// Sleep until `t`, then return how late the wake-up was (seconds).
double sleep_until(Clock::time_point t);

/// Waits on response futures on a few helper threads and stamps each
/// with the wall time it was observed ready, so the client thread never
/// blocks on a response. Several waiters keep one slow answer from
/// delaying the observation of later ones that finish first.
template <typename Response>
class Collector {
 public:
  struct Done {
    Response response;
    Clock::time_point observed;
    bool broken = false;  ///< the future held an exception, not a response
  };

  Collector(std::size_t expected, std::size_t waiters) : done_(expected) {
    for (std::size_t i = 0; i < waiters; ++i) {
      threads_.emplace_back([this] { loop(); });
    }
  }

  ~Collector() { close(); }

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Hand over request `index`'s future.
  void push(std::size_t index, std::future<Response> future) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back({index, std::move(future)});
    }
    cv_.notify_one();
  }

  /// No more pushes; wait until every pushed future resolved.
  std::vector<Done>& finish() {
    close();
    return done_;
  }

 private:
  struct Item {
    std::size_t index = 0;
    std::future<Response> future;
  };

  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  void loop() {
    for (;;) {
      Item item;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) return;
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      Done done;
      try {
        done.response = item.future.get();
      } catch (...) {
        done.broken = true;  // counted as a failed operation by the caller
      }
      done.observed = Clock::now();
      // Distinct indices: each slot is written by one waiter only.
      done_[item.index] = std::move(done);
    }
  }

  std::vector<Done> done_;
  std::mutex mutex_;  ///< guards queue_ and closed_
  std::condition_variable cv_;
  std::deque<Item> queue_;
  bool closed_ = false;
  std::vector<std::thread> threads_;  ///< last: joined before the rest
};

}  // namespace perfbench
