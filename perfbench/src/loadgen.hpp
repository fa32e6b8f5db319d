#pragma once

/// \file loadgen.hpp
/// Load generation against a live `serving::Server`: an open loop
/// (requests sent at pre-drawn due times, latency measured from each due
/// time) and a closed loop (a window of outstanding requests), generic
/// over the image and the sequence request types; the image workloads'
/// phases on top of them, and the per-layer readouts those share:
/// RequestTiming percentiles and the critical-path stage split of a
/// traced phase.

#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/json.hpp"
#include "core/rng.hpp"
#include "harness.hpp"
#include "preproc/codec.hpp"
#include "serving/server.hpp"

namespace perfbench {

struct Arrival {
  double due_s = 0.0;  ///< scheduled send, seconds after phase start
  int key = 0;         ///< index into the input pool
};

/// `count` Poisson arrivals at `rate` per second. A fixed count keeps
/// the latency sample size, and so the tail's percentile, the same in
/// every run.
std::vector<Arrival> poisson_arrivals(double rate, std::size_t count,
                                      int pool_size, core::Rng& rng);
/// `count` arrivals paced at a fixed `fps`.
std::vector<Arrival> paced_arrivals(double fps, std::size_t count,
                                    int pool_size, core::Rng& rng);

/// One request of a phase as the client saw it.
template <typename Response>
struct Answer {
  bool ok = false;  ///< submitted, resolved, and its status is ok
  Response response;
  Clock::time_point due;        ///< scheduled send (open loop) or submit
  Clock::time_point submitted;
  Clock::time_point observed;   ///< when the client saw the answer
  double late_s = 0.0;          ///< how late the client sent it

  double latency_s() const {
    return std::chrono::duration<double>(observed - due).count();
  }
  double since_submit_s() const {
    return std::chrono::duration<double>(observed - submitted).count();
  }
};

/// Response waiters of an open-loop phase: more than the requests any
/// phase keeps outstanding at its rate.
constexpr std::size_t kWaiters = 8;

/// Send request i at `arrivals[i].due_s` after the start, from this
/// thread. `prepare(i)` builds request i before it is due, so latency
/// starts at the send; `submit(request)` hands it to the server and
/// returns a `core::Result` of its future. Answers are observed on
/// waiter threads, so one slow answer never delays the sends.
template <typename Response, typename Prepare, typename Submit>
std::vector<Answer<Response>> open_loop(const std::vector<Arrival>& arrivals,
                                        Prepare&& prepare, Submit&& submit) {
  using Request = std::invoke_result_t<Prepare&, std::size_t>;
  std::vector<Answer<Response>> answers(arrivals.size());
  Collector<Response> collector(arrivals.size(), kWaiters);
  std::vector<bool> pushed(arrivals.size(), false);
  Request next;
  if (!arrivals.empty()) next = prepare(std::size_t{0});
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    Answer<Response>& answer = answers[i];
    answer.due = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(arrivals[i].due_s));
    Request request = std::move(next);
    answer.late_s = sleep_until(answer.due);
    answer.submitted = Clock::now();
    auto future = submit(std::move(request));
    if (i + 1 < arrivals.size()) next = prepare(i + 1);
    if (!future.is_ok()) continue;  // counted as failed
    collector.push(i, std::move(future).value());
    pushed[i] = true;
  }
  auto& done = collector.finish();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (!pushed[i] || done[i].broken) continue;
    answers[i].response = std::move(done[i].response);
    answers[i].observed = done[i].observed;
    answers[i].ok = answers[i].response.status.is_ok();
  }
  return answers;
}

/// Push `count` requests through, keeping `window` outstanding:
/// `prepare(i)` builds request i, `submit` sends it. `wall_s` receives
/// the time from the first submit to the last answer.
template <typename Response, typename Prepare, typename Submit>
std::vector<Answer<Response>> closed_loop(std::size_t count,
                                          std::size_t window,
                                          Prepare&& prepare, Submit&& submit,
                                          double& wall_s) {
  std::vector<Answer<Response>> answers(count);
  std::deque<std::pair<std::size_t, std::future<Response>>> in_flight;
  std::size_t next = 0;
  const Clock::time_point start = Clock::now();
  auto submit_next = [&] {
    const std::size_t i = next++;
    auto request = prepare(i);
    answers[i].due = answers[i].submitted = Clock::now();
    auto future = submit(std::move(request));
    if (future.is_ok()) in_flight.emplace_back(i, std::move(future).value());
  };
  while (next < count && in_flight.size() < window) submit_next();
  while (!in_flight.empty()) {
    auto [i, future] = std::move(in_flight.front());
    in_flight.pop_front();
    Answer<Response>& answer = answers[i];
    try {
      answer.response = future.get();
      answer.ok = answer.response.status.is_ok();
    } catch (const std::exception&) {
      answer.ok = false;  // a broken future: counted as failed
    }
    answer.observed = Clock::now();
    while (next < count && in_flight.size() < window) submit_next();
  }
  wall_s = seconds_since(start);
  return answers;
}

struct Outcome {
  int key = -1;
  bool ok = false;
  serving::InferenceResponse response;
  double latency_s = 0.0;  ///< due (open loop) or submit (drain) → observed
  double client_s = 0.0;   ///< submit → observed, minus the served total
  double late_s = 0.0;     ///< how late the client sent it
  std::uint64_t trace_id = 0;
};

/// Send `arrivals` to `model` at their due times (`open_loop`). With
/// `traced`, each request opens its own trace tree.
std::vector<Outcome> run_open_loop(
    serving::Server& server, const std::string& model,
    const std::vector<Arrival>& arrivals,
    const std::vector<preproc::EncodedImage>& pool, bool traced);

struct DrainRound {
  std::vector<Outcome> outcomes;
  double wall_s = 0.0;  ///< first submit → last response
};

/// Push `keys` through `model` keeping `window` requests outstanding
/// (`closed_loop`).
DrainRound run_drain(serving::Server& server, const std::string& model,
                     const std::vector<int>& keys,
                     const std::vector<preproc::EncodedImage>& pool,
                     std::size_t window);

/// Load `repository` onto a fresh server `reps` times and keep the last
/// one; `setup_s` receives each load's wall time.
std::unique_ptr<serving::Server> load_server(const core::Json& repository,
                                             std::size_t preproc_threads,
                                             int reps,
                                             std::vector<double>& setup_s);

/// The phases an image workload runs, and what they returned.
struct ImageRun {
  std::vector<double> setup_s;
  std::vector<Outcome> open;    ///< the untraced open-loop phase
  std::vector<Outcome> traced;  ///< the same schedule, traced (--trace 1)
  std::vector<DrainRound> rounds;

  /// Every answer of every phase, for the output checks.
  std::vector<const Outcome*> answers() const;
};

/// Send `arrivals` open-loop to `open_model` (and, with `trace`, again
/// under the TraceRecorder), then drain rounds of `keys` through
/// `drain_model` with `window` outstanding: at least two, and until
/// `drain_s` has passed.
void run_image_phases(serving::Server& server, const std::string& open_model,
                      const std::vector<Arrival>& arrivals,
                      const std::string& drain_model,
                      const std::vector<int>& keys, std::size_t window,
                      double drain_s,
                      const std::vector<preproc::EncodedImage>& pool,
                      bool trace, ImageRun& run);

/// Phase counts and end-to-end metrics of an image workload; with
/// `trace`, also its serving, obs and load-generator per-layer metrics
/// and the Chrome trace written to `trace_path`.
void report_image_run(const ImageRun& run, const std::string& open_phase,
                      const std::string& drain_phase, bool trace,
                      const std::string& trace_path, Result& result);

/// Bitwise equality of two logit rows.
bool same_logits(const std::vector<float>& a, const std::vector<float>& b);

}  // namespace perfbench
