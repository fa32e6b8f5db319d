#include "loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "obs/critical_path.hpp"
#include "obs/trace.hpp"
#include "serving/repository.hpp"

namespace perfbench {

std::vector<Arrival> poisson_arrivals(double rate, std::size_t count,
                                      int pool_size, core::Rng& rng) {
  std::vector<Arrival> arrivals(count);
  double t = 0.0;
  for (Arrival& a : arrivals) {
    t += rng.exponential(rate);
    a = {t, static_cast<int>(rng.uniform_int(0, pool_size - 1))};
  }
  return arrivals;
}

std::vector<Arrival> paced_arrivals(double fps, std::size_t count,
                                    int pool_size, core::Rng& rng) {
  std::vector<Arrival> arrivals(count);
  for (std::size_t i = 0; i < count; ++i) {
    arrivals[i] = {static_cast<double>(i) / fps,
                   static_cast<int>(rng.uniform_int(0, pool_size - 1))};
  }
  return arrivals;
}

namespace {

/// A traced request opens its tree under a client span the benchmark
/// records itself once the answer is observed (from the due time), so
/// the critical path's root is the latency the client measured.
serving::InferenceRequest make_request(const std::string& model,
                                       const preproc::EncodedImage& image,
                                       bool traced) {
  serving::InferenceRequest request;
  request.model = model;
  request.input = image;
  if (traced) {
    request.trace.trace_id = obs::next_trace_id();
    request.trace.parent_span_id = obs::next_span_id();
  }
  return request;
}

void record_client_span(const Outcome& outcome, Clock::time_point due,
                        std::uint64_t span_id) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  obs::TraceEvent event;
  event.name = "client_request";
  event.cat = "client";
  event.ts_us = recorder.to_us(due);
  event.dur_us = outcome.latency_s * 1e6;
  event.id = outcome.response.id;
  event.trace_id = outcome.trace_id;
  event.span_id = span_id;
  recorder.record(std::move(event));
}

void finish_outcome(Outcome& outcome,
                    Answer<serving::InferenceResponse>& answer) {
  outcome.ok = answer.ok;
  outcome.late_s = answer.late_s;
  outcome.latency_s = answer.latency_s();
  outcome.client_s = answer.since_submit_s() - answer.response.timing.total_s;
  outcome.response = std::move(answer.response);
}

}  // namespace

std::vector<Outcome> run_open_loop(
    serving::Server& server, const std::string& model,
    const std::vector<Arrival>& arrivals,
    const std::vector<preproc::EncodedImage>& pool, bool traced) {
  std::vector<Outcome> outcomes(arrivals.size());
  std::vector<std::uint64_t> client_spans(arrivals.size(), 0);
  // Each request is built (its image copied in, as a camera or upload
  // client hands over a fresh buffer) before its due time.
  auto prepare = [&](std::size_t i) {
    outcomes[i].key = arrivals[i].key;
    serving::InferenceRequest request = make_request(
        model, pool[static_cast<std::size_t>(arrivals[i].key)], traced);
    outcomes[i].trace_id = request.trace.trace_id;
    client_spans[i] = request.trace.parent_span_id;
    return request;
  };
  auto answers = open_loop<serving::InferenceResponse>(
      arrivals, prepare, [&server](serving::InferenceRequest request) {
        return server.submit(std::move(request));
      });
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    finish_outcome(outcomes[i], answers[i]);
    if (traced && outcomes[i].ok) {
      record_client_span(outcomes[i], answers[i].due, client_spans[i]);
    }
  }
  return outcomes;
}

DrainRound run_drain(serving::Server& server, const std::string& model,
                     const std::vector<int>& keys,
                     const std::vector<preproc::EncodedImage>& pool,
                     std::size_t window) {
  DrainRound round;
  round.outcomes.resize(keys.size());
  auto answers = closed_loop<serving::InferenceResponse>(
      keys.size(), window,
      [&](std::size_t i) {
        round.outcomes[i].key = keys[i];
        return make_request(model, pool[static_cast<std::size_t>(keys[i])],
                            false);
      },
      [&server](serving::InferenceRequest request) {
        return server.submit(std::move(request));
      },
      round.wall_s);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    finish_outcome(round.outcomes[i], answers[i]);
  }
  return round;
}

std::unique_ptr<serving::Server> load_server(const core::Json& repository,
                                             std::size_t preproc_threads,
                                             int reps,
                                             std::vector<double>& setup_s) {
  std::unique_ptr<serving::Server> server;
  for (int rep = 0; rep < reps; ++rep) {
    if (server) server->shutdown();
    server.reset();
    server = std::make_unique<serving::Server>(preproc_threads);
    const auto t0 = Clock::now();
    const core::Status status = serving::load_repository(*server, repository);
    setup_s.push_back(seconds_since(t0));
    if (!status.is_ok()) {
      throw std::runtime_error("load_repository: " + status.message());
    }
  }
  return server;
}

std::vector<const Outcome*> ImageRun::answers() const {
  std::vector<const Outcome*> all;
  for (const Outcome& o : open) all.push_back(&o);
  for (const Outcome& o : traced) all.push_back(&o);
  for (const DrainRound& r : rounds) {
    for (const Outcome& o : r.outcomes) all.push_back(&o);
  }
  return all;
}

void run_image_phases(serving::Server& server, const std::string& open_model,
                      const std::vector<Arrival>& arrivals,
                      const std::string& drain_model,
                      const std::vector<int>& keys, std::size_t window,
                      double drain_s,
                      const std::vector<preproc::EncodedImage>& pool,
                      bool trace, ImageRun& run) {
  run.open = run_open_loop(server, open_model, arrivals, pool, false);
  if (trace) {
    obs::TraceRecorder::instance().enable();
    run.traced = run_open_loop(server, open_model, arrivals, pool, true);
    obs::TraceRecorder::instance().disable();
  }
  // At least two rounds, so the throughput spans more than one.
  const auto drain_start = Clock::now();
  do {
    run.rounds.push_back(run_drain(server, drain_model, keys, pool, window));
  } while (run.rounds.size() < 2 || seconds_since(drain_start) < drain_s);
}

namespace {

std::int64_t failed_count(const std::vector<Outcome>& outcomes) {
  std::int64_t failed = 0;
  for (const Outcome& o : outcomes) failed += o.ok ? 0 : 1;
  return failed;
}

std::vector<double> latencies_ms(const std::vector<Outcome>& outcomes) {
  std::vector<double> ms;
  for (const Outcome& o : outcomes) {
    if (o.ok) ms.push_back(o.latency_s * 1e3);
  }
  return ms;
}

/// serving.* readouts of a phase from the RequestTiming of each answer.
void report_serving_layers(const std::vector<Outcome>& outcomes,
                           Result& result) {
  std::vector<double> queue, inference, overhead, client;
  double batches = 0.0;
  for (const Outcome& o : outcomes) {
    if (!o.ok) continue;
    const serving::RequestTiming& t = o.response.timing;
    queue.push_back(t.queue_s * 1e3);
    inference.push_back(t.inference_s * 1e3);
    overhead.push_back(
        (t.total_s - t.queue_s - t.preprocess_s - t.inference_s) * 1e3);
    client.push_back(o.client_s * 1e3);
    // Each request of a batch of b carries 1/b of that batch.
    if (t.batch_size > 0) batches += 1.0 / static_cast<double>(t.batch_size);
  }
  result.metric("serving.queue_ms_p50", median(queue), "ms");
  result.metric("serving.inference_ms_p50", median(inference), "ms");
  result.metric("serving.overhead_ms_p50", median(overhead), "ms");
  result.metric("serving.client_ms_p50", median(client), "ms");
  result.metric("serving.batch_size_mean",
                batches > 0.0 ? static_cast<double>(queue.size()) / batches
                              : 0.0,
                "count");
}

/// Critical-path attribution of a traced phase's requests, read back
/// from the process TraceRecorder; writes the Chrome trace to `path`.
void report_trace(const std::vector<Outcome>& outcomes,
                  const std::string& path, Result& result) {
  // Stated in perfbench/README.md: per request, the server's stage spans
  // and the client's send lateness account for all but this share of
  // the latency the client measured. A stage missing from the trace
  // would leave most of it unattributed.
  constexpr double kResidueBound = 0.05;
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  const core::Json doc = recorder.to_json();
  if (!recorder.write(path)) {
    result.check(false, "write Chrome trace " + path);
  }
  std::vector<double> stage[4];
  std::vector<double> residue;
  double worst_ms = 0.0, worst_share = 0.0;
  std::size_t analyzed = 0, traced = 0;
  for (const Outcome& o : outcomes) {
    if (!o.ok || o.trace_id == 0) continue;
    ++traced;
    auto path_or = obs::critical_path(doc, o.trace_id);
    if (!path_or.is_ok() || path_or.value().root_name != "client_request") {
      continue;
    }
    const obs::CriticalPath& cp = path_or.value();
    ++analyzed;
    stage[0].push_back(cp.segment(obs::Segment::kQueue) * 1e-3);
    stage[1].push_back(cp.segment(obs::Segment::kPreprocess) * 1e-3);
    stage[2].push_back(cp.segment(obs::Segment::kInference) * 1e-3);
    stage[3].push_back(cp.segment(obs::Segment::kTransmit) * 1e-3);
    // The root is the client-measured latency from the due time; what
    // the server's stage spans leave of it is the client's own share:
    // how late it sent, then submit and hand-back.
    const double residue_ms = cp.unattributed_us * 1e-3 - o.late_s * 1e3;
    residue.push_back(residue_ms);
    worst_ms = std::max(worst_ms, std::fabs(residue_ms));
    worst_share = std::max(worst_share, std::fabs(residue_ms) /
                                            (cp.end_to_end_us * 1e-3));
  }
  char line[220];
  std::snprintf(line, sizeof(line),
                "critical path of %zu/%zu traced requests: server stages and "
                "send lateness reconcile with client latency within %.3f ms, "
                "%.2f%% (<= %.0f%%)",
                analyzed, traced, worst_ms, 100.0 * worst_share,
                100.0 * kResidueBound);
  result.check(analyzed == traced && traced > 0 && worst_share <= kResidueBound,
               line);
  result.metric("obs.stage_queue_ms", mean(stage[0]), "ms");
  result.metric("obs.stage_preprocess_ms", mean(stage[1]), "ms");
  result.metric("obs.stage_inference_ms", mean(stage[2]), "ms");
  result.metric("obs.stage_respond_ms", mean(stage[3]), "ms");
  result.metric("obs.residue_ms", mean(residue), "ms");
  std::snprintf(line, sizeof(line),
                "stage split per request (mean ms): queue %.3f  preprocess "
                "%.3f  inference %.3f  respond %.3f  residue %.5f",
                mean(stage[0]), mean(stage[1]), mean(stage[2]),
                mean(stage[3]), mean(residue));
  result.note(line);
}

}  // namespace

void report_image_run(const ImageRun& run, const std::string& open_phase,
                      const std::string& drain_phase, bool trace,
                      const std::string& trace_path, Result& result) {
  result.phase(open_phase, static_cast<std::int64_t>(run.open.size()),
               failed_count(run.open));
  if (trace) {
    result.phase(open_phase + "_traced",
                 static_cast<std::int64_t>(run.traced.size()),
                 failed_count(run.traced));
  }
  std::int64_t drained = 0, drain_failed = 0;
  double drain_wall_s = 0.0;
  std::vector<double> batch_ms;
  for (const DrainRound& r : run.rounds) {
    drained += static_cast<std::int64_t>(r.outcomes.size());
    drain_failed += failed_count(r.outcomes);
    drain_wall_s += r.wall_s;
    for (const Outcome& o : r.outcomes) {
      if (o.ok) batch_ms.push_back(o.response.timing.preprocess_s * 1e3);
    }
  }
  result.phase(drain_phase, drained, drain_failed);

  const std::vector<double> latency = latencies_ms(run.open);
  double late_max_ms = 0.0;
  for (const Outcome& o : run.open) {
    late_max_ms = std::max(late_max_ms, o.late_s * 1e3);
  }
  double tail_pct = 0.0;
  const double tail_ms = tail(latency, 10, &tail_pct);
  char line[200];
  std::snprintf(line, sizeof(line),
                "%s latency from due time over %zu requests: p50 %.2f ms, "
                "tail p%.1f %.2f ms; %zu %s rounds",
                open_phase.c_str(), latency.size(), median(latency), tail_pct,
                tail_ms, run.rounds.size(), drain_phase.c_str());
  result.note(line);
  result.metric("setup_s", median(run.setup_s), "s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  result.metric("lat_p50_ms", median(latency), "ms");
  result.metric("lat_tail_ms", tail_ms, "ms");
  result.metric("throughput_per_s", static_cast<double>(drained) / drain_wall_s,
                "1/s");
  if (!trace) return;

  result.metric("obs.trace_overhead_ms",
                median(latencies_ms(run.traced)) - median(latency), "ms");
  result.metric("loadgen.late_ms_max", late_max_ms, "ms");
  result.metric("loadgen.lat_samples", static_cast<double>(latency.size()),
                "count");
  result.metric("serving.repository_load_s", median(run.setup_s), "s");
  result.metric("preproc.batch_ms", median(batch_ms), "ms");
  report_serving_layers(run.open, result);
  report_trace(run.traced, trace_path, result);
}

bool same_logits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace perfbench
