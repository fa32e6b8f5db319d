#include "harness.hpp"

#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <numeric>

#include "tensor/buffer.hpp"

namespace perfbench {
namespace {

std::atomic<bool> g_heap_armed{false};
std::atomic<std::uint64_t> g_heap_count{0};

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

std::uint64_t heap_allocations(const std::function<void()>& fn) {
  const std::uint64_t news = g_heap_count.load(std::memory_order_seq_cst);
  const std::uint64_t buffers = tensor::AlignedBuffer::heap_allocation_count();
  g_heap_armed.store(true, std::memory_order_seq_cst);
  fn();
  g_heap_armed.store(false, std::memory_order_seq_cst);
  return (g_heap_count.load(std::memory_order_seq_cst) - news) +
         (tensor::AlignedBuffer::heap_allocation_count() - buffers);
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

std::vector<std::string> Result::select(
    const std::vector<std::pair<std::string, std::string>>& names,
    bool zero_fill) {
  std::vector<Metric> kept;
  std::vector<std::string> missing;
  for (const auto& [name, unit] : names) {
    const auto it =
        std::find_if(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
    if (it != metrics_.end()) {
      kept.push_back({name, it->value, unit});
    } else if (zero_fill) {
      kept.push_back({name, 0.0, unit});
    } else {
      missing.push_back(name);
    }
  }
  metrics_ = std::move(kept);
  return missing;
}

void Result::phase(const std::string& name, std::int64_t attempted,
                   std::int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
  char line[256];
  std::snprintf(line, sizeof(line), "phase %-22s attempted %6lld  failed %lld",
                name.c_str(), static_cast<long long>(attempted),
                static_cast<long long>(failed));
  lines_.emplace_back(line);
}

void Result::check(bool ok, const std::string& what) {
  lines_.push_back(std::string(ok ? "check ok    " : "CHECK FAILED ") + what);
  if (!ok) correct_ = false;
}

void Result::note(const std::string& line) { lines_.push_back(line); }

void Result::print() const {
  for (const std::string& line : lines_) std::printf("%s\n", line.c_str());
  for (const Metric& m : metrics_) {
    std::printf("metric %-36s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) json += ", ";
    append_json_string(json, m.name);
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += ": {\"value\": ";
    json += value;
    json += ", \"unit\": ";
    append_json_string(json, m.unit);
    json += "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double tail(std::vector<double> values, std::size_t beyond, double* percent) {
  if (values.empty()) {
    *percent = 0.0;
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= beyond) {
    *percent = 100.0;
    return values.back();
  }
  const std::size_t k = n - 1 - beyond;
  *percent = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  return values[k];
}

std::size_t argmax(const float* values, std::size_t n) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (values[i] > values[best]) best = i;
  }
  return best;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void with_default_team(const std::function<void()>& fn) {
  const int before = omp_get_max_threads();
  omp_set_num_threads(omp_get_num_procs());
  fn();
  omp_set_num_threads(before);
}

double time_ms(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(seconds_since(t0) * 1e3);
  }
  return median(samples);
}

double sleep_until(Clock::time_point t) {
  std::this_thread::sleep_until(t);
  return std::max(0.0, seconds_since(t));
}

}  // namespace perfbench

// Counting replacements of the global allocation functions: every heap
// allocation in the process passes here, so a measured region's count
// is exact. Disarmed, the cost is one relaxed load per allocation.
void* operator new(std::size_t bytes) {
  if (perfbench::g_heap_armed.load(std::memory_order_relaxed)) {
    perfbench::g_heap_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t bytes) { return operator new(bytes); }

void* operator new(std::size_t bytes, std::align_val_t align) {
  if (perfbench::g_heap_armed.load(std::memory_order_relaxed)) {
    perfbench::g_heap_count.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((bytes == 0 ? 1 : bytes) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t bytes, std::align_val_t align) {
  return operator new(bytes, align);
}

void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  try {
    return operator new(bytes);
  } catch (...) {
    return nullptr;
  }
}

void* operator new[](std::size_t bytes, const std::nothrow_t& tag) noexcept {
  return operator new(bytes, tag);
}

void* operator new(std::size_t bytes, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return operator new(bytes, align);
  } catch (...) {
    return nullptr;
  }
}

void* operator new[](std::size_t bytes, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return operator new(bytes, align, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
