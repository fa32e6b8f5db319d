/// agri_lm: sequence requests to a `NativeSequenceBackend` attention
/// (KV-cache) deployment served by `Server::submit_sequence`. Phase 1
/// sends Poisson arrivals: half short prompts with long generations,
/// half long prompts with short generations, so prefill and decode are
/// both on the path in different proportions. Phase 2 saturates the
/// continuous-batching scheduler with a closed loop.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "core/json.hpp"
#include "nn/token_model.hpp"
#include "obs/critical_path.hpp"
#include "obs/trace.hpp"
#include "serving/sequence/sequence_backend.hpp"
#include "serving/server.hpp"
#include "loadgen.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace seq = harvest::serving::sequence;

constexpr double kRate = 8.0;          // phase 1 sequences per second
constexpr double kOpenShare = 0.7;     // of --seconds, the rest saturates
constexpr int kPromptsPerKind = 8;     // distinct prompts of each kind
constexpr int kRoundSize = 48;         // sequences per saturating round
constexpr std::size_t kWindow = 16;    // outstanding in the closed loop
constexpr int kSetupReps = 5;

struct Kind {
  const char* name;
  std::int64_t prompt;
  std::int64_t generate;
};
constexpr Kind kKinds[2] = {{"short_prompt", 16, 48}, {"long_prompt", 160, 8}};

struct LmDeployment {
  std::string name = "agri_lm";
  nn::TokenModelConfig model{"agri_lm", "attn", 512, 128, 4, 4, 256};
  std::uint64_t seed = 2026;
  std::int64_t max_active = 8;
  std::int64_t length_multiple_of = 1;

  core::Json entry() const {
    core::Json e = core::Json::object();
    e["name"] = name;
    e["workload"] = "sequence";
    e["backend"] = "native";
    e["architecture"] = model.arch;
    e["vocab"] = model.vocab;
    e["dim"] = model.dim;
    e["depth"] = model.depth;
    e["heads"] = model.heads;
    e["max_tokens"] = model.max_tokens;
    e["seed"] = static_cast<std::int64_t>(seed);
    e["max_active"] = max_active;
    e["slots"] = max_active;
    e["length_multiple_of"] = length_multiple_of;
    e["max_queue_depth"] = std::int64_t{4096};
    return e;
  }
};

/// One prompt of the pool: its kind and tokens.
struct Prompt {
  int kind = 0;
  std::vector<std::int32_t> tokens;
};

/// What the client saw of one sequence.
struct Seen {
  int prompt = -1;
  bool ok = false;
  seq::SequenceResponse response;
  std::vector<seq::TokenEvent> events;
  double late_s = 0.0;       ///< client send lateness
  std::uint64_t trace_id = 0;
};

/// A request for `prompt` whose streamed tokens land in `seen.events`.
seq::SequenceRequest make_request(const LmDeployment& d,
                                  const std::vector<Prompt>& prompts,
                                  int prompt, Seen& seen, bool traced) {
  const Prompt& p = prompts[static_cast<std::size_t>(prompt)];
  seen.prompt = prompt;
  seq::SequenceRequest request;
  request.model = d.name;
  request.prompt = p.tokens;
  request.max_new_tokens = kKinds[p.kind].generate;
  seen.events.reserve(static_cast<std::size_t>(request.max_new_tokens));
  request.on_token = [&seen](const seq::TokenEvent& e) {
    seen.events.push_back(e);
  };
  if (traced) request.trace.trace_id = obs::next_trace_id();
  seen.trace_id = request.trace.trace_id;
  return request;
}

std::vector<Seen> collect(std::vector<Seen> seen,
                          std::vector<Answer<seq::SequenceResponse>> answers) {
  for (std::size_t i = 0; i < seen.size(); ++i) {
    seen[i].ok = answers[i].ok;
    seen[i].late_s = answers[i].late_s;
    seen[i].response = std::move(answers[i].response);
  }
  return seen;
}

/// Phase 1: `arrivals` (key = prompt index) sent at their due times.
std::vector<Seen> run_open(serving::Server& server, const LmDeployment& d,
                           const std::vector<Prompt>& prompts,
                           const std::vector<Arrival>& arrivals, bool traced) {
  std::vector<Seen> seen(arrivals.size());
  auto answers = open_loop<seq::SequenceResponse>(
      arrivals,
      [&](std::size_t i) {
        return make_request(d, prompts, arrivals[i].key, seen[i], traced);
      },
      [&server](seq::SequenceRequest request) {
        return server.submit_sequence(std::move(request));
      });
  return collect(std::move(seen), std::move(answers));
}

struct SaturatedRound {
  std::vector<Seen> seen;
  double wall_s = 0.0;
};

/// Phase 2: one round of `order` with `kWindow` sequences outstanding.
SaturatedRound run_saturated(serving::Server& server, const LmDeployment& d,
                             const std::vector<Prompt>& prompts,
                             const std::vector<int>& order) {
  SaturatedRound round;
  std::vector<Seen> seen(order.size());
  auto answers = closed_loop<seq::SequenceResponse>(
      order.size(), kWindow,
      [&](std::size_t i) {
        return make_request(d, prompts, order[i], seen[i], false);
      },
      [&server](seq::SequenceRequest request) {
        return server.submit_sequence(std::move(request));
      },
      round.wall_s);
  round.seen = collect(std::move(seen), std::move(answers));
  return round;
}

/// Greedy decode of one prompt alone, straight through the token model.
std::vector<std::int32_t> decode_alone(nn::TokenModel& model,
                                       const std::vector<std::int32_t>& prompt,
                                       std::int64_t budget) {
  const nn::SequenceStateSpec spec = model.state_spec();
  std::vector<float> slab(static_cast<std::size_t>(spec.floats_per_sequence()));
  nn::SequenceState state(spec, slab.data());
  state.reset();
  std::vector<float> logits(static_cast<std::size_t>(model.config().vocab));
  model.prefill(prompt.data(), static_cast<std::int64_t>(prompt.size()), state,
                logits.data());
  std::vector<std::int32_t> tokens;
  tokens.push_back(static_cast<std::int32_t>(argmax(logits.data(), logits.size())));
  nn::SequenceState* states[1] = {&state};
  while (static_cast<std::int64_t>(tokens.size()) < budget) {
    model.decode_batch(&tokens.back(), states, 1, logits.data());
    tokens.push_back(
        static_cast<std::int32_t>(argmax(logits.data(), logits.size())));
  }
  return tokens;
}

/// Mean of the middle half of `values` (sorted ranks n/4 to 3n/4).
double interquartile_mean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return mean({values.begin() + static_cast<std::ptrdiff_t>(n / 4),
               values.begin() + static_cast<std::ptrdiff_t>(n - n / 4)});
}

/// Time to first token from the due time, in ms.
double ttft_ms(const Seen& s) {
  return (s.late_s + s.response.timing.ttft_s) * 1e3;
}

}  // namespace

void run_agri_lm(const Options& options, Result& result) {
  const LmDeployment deployment;

  // Inputs from the seed: the prompt pool, the arrival plan, the
  // saturating round's order.
  core::Rng rng(core::splitmix64(options.seed ^ 0xa6e1ULL));
  std::vector<Prompt> prompts;
  for (int kind = 0; kind < 2; ++kind) {
    for (int i = 0; i < kPromptsPerKind; ++i) {
      Prompt p;
      p.kind = kind;
      for (std::int64_t t = 0; t < kKinds[kind].prompt; ++t) {
        p.tokens.push_back(static_cast<std::int32_t>(
            rng.uniform_int(0, deployment.model.vocab - 1)));
      }
      prompts.push_back(std::move(p));
    }
  }
  const double open_s = options.seconds * (options.trace ? 0.4 : kOpenShare);
  const double saturate_s =
      options.seconds * (options.trace ? 0.2 : 1 - kOpenShare);
  // A fixed, even number of Poisson arrivals whose kinds alternate, so
  // every run has the same sample count of each kind.
  std::vector<Arrival> plan = poisson_arrivals(
      kRate, 2 * static_cast<std::size_t>(kRate * open_s / 2),
      kPromptsPerKind, rng);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    plan[i].key += static_cast<int>(i % 2) * kPromptsPerKind;
  }
  std::vector<int> order(kRoundSize);
  for (int i = 0; i < kRoundSize; ++i) {
    // Alternate kinds so every round carries the same token work.
    order[static_cast<std::size_t>(i)] =
        (i % 2) * kPromptsPerKind +
        static_cast<int>(rng.uniform_int(0, kPromptsPerKind - 1));
  }

  core::Json repository = core::Json::object();
  repository["models"] = core::Json::array();
  repository["models"].push_back(deployment.entry());
  std::vector<double> setup;
  std::unique_ptr<serving::Server> server =
      load_server(repository, 1, kSetupReps, setup);

  // Warm-up, not measured: one saturating round.
  run_saturated(*server, deployment, prompts, order);

  const std::vector<Seen> open = run_open(*server, deployment, prompts, plan, false);
  std::vector<Seen> traced;
  if (options.trace) {
    obs::TraceRecorder::instance().enable();
    traced = run_open(*server, deployment, prompts, plan, true);
    obs::TraceRecorder::instance().disable();
  }
  std::vector<SaturatedRound> rounds;
  const auto saturate_start = Clock::now();
  do {
    rounds.push_back(run_saturated(*server, deployment, prompts, order));
  } while (seconds_since(saturate_start) < saturate_s);
  const seq::SequenceMetrics::Snapshot snapshot =
      server->sequence_metrics(deployment.name)->snapshot();
  const double pool_mb =
      static_cast<double>(
          server->sequence_scheduler(deployment.name)->pool().capacity_bytes()) /
      (1024.0 * 1024.0);
  server->shutdown();

  auto failures = [](const std::vector<Seen>& seen) {
    std::int64_t failed = 0;
    for (const Seen& s : seen) failed += s.ok ? 0 : 1;
    return failed;
  };
  result.phase("poisson_sequences", static_cast<std::int64_t>(open.size()),
               failures(open));
  if (options.trace) {
    result.phase("poisson_sequences_traced",
                 static_cast<std::int64_t>(traced.size()), failures(traced));
  }
  std::int64_t saturated = 0, saturated_failed = 0;
  for (const SaturatedRound& r : rounds) {
    saturated += static_cast<std::int64_t>(r.seen.size());
    saturated_failed += failures(r.seen);
  }
  result.phase("saturating_sequences", saturated, saturated_failed);
  char line[260];
  std::snprintf(line, sizeof(line),
                "scheduler counters: submitted %llu = completed %llu + shed "
                "%llu + failed %llu + expired %llu + evicted %llu",
                static_cast<unsigned long long>(snapshot.counters.submitted),
                static_cast<unsigned long long>(snapshot.counters.completed),
                static_cast<unsigned long long>(snapshot.counters.shed),
                static_cast<unsigned long long>(snapshot.counters.failed),
                static_cast<unsigned long long>(snapshot.counters.expired),
                static_cast<unsigned long long>(snapshot.counters.evicted));
  result.check(snapshot.counters.conserved(), line);

  // Checks: every sequence's greedy tokens equal the same prompt decoded
  // alone through TokenModel::prefill/decode_batch; tokens streamed in
  // index order, as many as the budget.
  nn::TokenModelPtr reference = nn::build_token_model(deployment.model);
  nn::init_token_model(*reference, deployment.seed);
  std::vector<std::vector<std::int32_t>> expected;
  for (const Prompt& p : prompts) {
    expected.push_back(
        decode_alone(*reference, p.tokens, kKinds[p.kind].generate));
  }
  std::size_t checked = 0, identical = 0, streamed = 0;
  auto check = [&](const std::vector<Seen>& seen) {
    for (const Seen& s : seen) {
      if (!s.ok) continue;
      ++checked;
      const auto& want = expected[static_cast<std::size_t>(s.prompt)];
      identical += s.response.tokens == want;
      bool in_order = s.events.size() == want.size();
      for (std::size_t k = 0; in_order && k < s.events.size(); ++k) {
        in_order = s.events[k].index == static_cast<std::int64_t>(k) &&
                   s.events[k].token == s.response.tokens[k] &&
                   s.events[k].last == (k + 1 == s.events.size());
      }
      streamed += in_order;
    }
  };
  check(open);
  check(traced);
  for (const SaturatedRound& r : rounds) check(r.seen);
  std::snprintf(line, sizeof(line),
                "greedy tokens equal the prompt decoded alone: %zu/%zu; "
                "streamed in index order to the budget: %zu/%zu",
                identical, checked, streamed, checked);
  result.check(checked > 0 && identical == checked && streamed == checked, line);

  // End-to-end metrics.
  std::vector<double> ttft, tpot, ttft_kind[2];
  double late_max_ms = 0.0;
  for (const Seen& s : open) {
    late_max_ms = std::max(late_max_ms, s.late_s * 1e3);
    if (!s.ok) continue;
    ttft.push_back(ttft_ms(s));
    ttft_kind[s.prompt / kPromptsPerKind].push_back(ttft_ms(s));
    for (std::size_t k = 1; k < s.events.size(); ++k) {
      tpot.push_back(
          (s.events[k].since_submit_s - s.events[k - 1].since_submit_s) * 1e3);
    }
  }
  double saturated_tokens = 0.0, saturated_wall_s = 0.0;
  for (const SaturatedRound& r : rounds) {
    for (const Seen& s : r.seen) {
      saturated_tokens += static_cast<double>(s.response.tokens.size());
    }
    saturated_wall_s += r.wall_s;
  }
  // The two prompt kinds make TTFT bimodal, and the pooled median of a
  // half/half mix flips between the modes with the draw. Each kind is
  // bimodal again on this host (a long prefill runs at one of two
  // speeds), and a kind's median flips with the share of each mode. The
  // typical TTFT is therefore the mean of the two kinds' interquartile
  // means, which moves in proportion to that share. The tail is pooled:
  // at this sample count its rank sits in the long-prompt mode, where a
  // short prompt queued behind a long prefill also lands.
  double tail_pct = 0.0;
  const double ttft_tail = tail(ttft, 10, &tail_pct);
  const double kind_typical[2] = {interquartile_mean(ttft_kind[0]),
                                  interquartile_mean(ttft_kind[1])};
  const double ttft_p50 = 0.5 * (kind_typical[0] + kind_typical[1]);
  std::snprintf(line, sizeof(line),
                "TTFT from due time over %zu sequences (%zu+%zu) at %.1f/s: "
                "typical %.2f ms (interquartile means %s %.2f, %s %.2f), tail "
                "p%.1f %.2f ms; TPOT p50 "
                "%.3f ms; %zu saturating rounds",
                ttft.size(), ttft_kind[0].size(), ttft_kind[1].size(), kRate,
                ttft_p50, kKinds[0].name, kind_typical[0], kKinds[1].name,
                kind_typical[1], tail_pct, ttft_tail,
                median(tpot), rounds.size());
  result.note(line);
  result.metric("setup_s", median(setup), "s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  result.metric("lat_p50_ms", ttft_p50, "ms");
  result.metric("lat_tail_ms", ttft_tail, "ms");
  result.metric("throughput_per_s", saturated_tokens / saturated_wall_s, "1/s");

  if (!options.trace) return;

  std::vector<double> traced_ttft, queue_ms;
  for (const Seen& s : traced) {
    if (s.ok) traced_ttft.push_back(ttft_ms(s));
  }
  for (const Seen& s : open) {
    if (s.ok) queue_ms.push_back(s.response.timing.queue_s * 1e3);
  }
  result.metric("obs.trace_overhead_ms", median(traced_ttft) - median(ttft),
                "ms");
  result.metric("loadgen.late_ms_max", late_max_ms, "ms");
  result.metric("loadgen.lat_samples", static_cast<double>(ttft.size()), "count");
  result.metric("serving.repository_load_s", median(setup), "s");
  result.metric("serving.seq_queue_ms_p50", median(queue_ms), "ms");
  result.metric("serving.seq_rows_per_step", snapshot.mean_batch_rows, "count");
  result.metric("serving.state_pool_mb", pool_mb, "MB");
  result.metric("serving.tpot_p50_ms", median(tpot), "ms");

  // Critical path of the traced sequences: the scheduler records
  // prefill and decode-step spans under each sequence's root; queueing
  // before admission and the gaps while other sequences prefill are the
  // unattributed remainder.
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  const core::Json doc = recorder.to_json();
  if (!recorder.write(options.out_dir + "/trace_agri_lm.json")) {
    result.check(false, "write Chrome trace");
  }
  std::vector<double> spans_ms, queue_traced_ms, residue_ms;
  std::size_t analyzed = 0, with_trace = 0;
  for (const Seen& s : traced) {
    if (!s.ok || s.trace_id == 0) continue;
    ++with_trace;
    auto cp = obs::critical_path(doc, s.trace_id);
    if (!cp.is_ok()) continue;
    ++analyzed;
    const double queued = s.response.timing.queue_s * 1e3;
    spans_ms.push_back(cp.value().attributed_us() * 1e-3);
    queue_traced_ms.push_back(queued);
    residue_ms.push_back(cp.value().unattributed_us * 1e-3 - queued);
  }
  std::snprintf(line, sizeof(line),
                "critical path of %zu/%zu traced sequences: queue %.3f ms, "
                "prefill+decode spans %.3f ms, residue %.3f ms (mean)",
                analyzed, with_trace, mean(queue_traced_ms), mean(spans_ms),
                mean(residue_ms));
  result.check(analyzed == with_trace && analyzed > 0, line);
  result.metric("obs.stage_queue_ms", mean(queue_traced_ms), "ms");
  result.metric("obs.stage_inference_ms", mean(spans_ms), "ms");
  result.metric("obs.residue_ms", mean(residue_ms), "ms");

  // The token layer on the workload's own prompts, through the
  // deployment's own backend type over the reference model.
  seq::NativeSequenceBackend backend(std::move(reference),
                                     deployment.length_multiple_of);
  const nn::SequenceStateSpec spec = backend.state_spec();
  std::vector<float> slab(static_cast<std::size_t>(spec.floats_per_sequence() *
                                                   deployment.max_active));
  std::vector<nn::SequenceState> states;
  for (std::int64_t r = 0; r < deployment.max_active; ++r) {
    states.emplace_back(spec, slab.data() + r * spec.floats_per_sequence());
  }
  auto prefill = [&](const Prompt& p, nn::SequenceState& state) {
    state.reset();
    auto step = backend.prefill(p.tokens.data(),
                                static_cast<std::int64_t>(p.tokens.size()), state);
    if (!step.is_ok()) throw std::runtime_error("prefill: " + step.status().message());
    return step.value().tokens.front();
  };
  for (int kind = 0; kind < 2; ++kind) {
    const Prompt& p = prompts[static_cast<std::size_t>(kind * kPromptsPerKind)];
    const double ms = time_ms(5, [&] { prefill(p, states[0]); });
    result.metric(kind == 0 ? "nn.prefill_ms_short" : "nn.prefill_ms_long", ms,
                  "ms");
  }
  // A full live batch of short-prompt sequences, decoding.
  std::vector<nn::SequenceState*> rows;
  std::vector<std::int32_t> last;
  for (std::int64_t r = 0; r < deployment.max_active; ++r) {
    nn::SequenceState& state = states[static_cast<std::size_t>(r)];
    last.push_back(prefill(prompts[static_cast<std::size_t>(r % kPromptsPerKind)],
                           state));
    rows.push_back(&state);
  }
  auto step = [&] {
    auto decoded = backend.decode(last.data(), rows.data(), deployment.max_active);
    if (!decoded.is_ok()) {
      throw std::runtime_error("decode: " + decoded.status().message());
    }
  };
  result.metric("nn.decode_step_ms", time_ms(9, step), "ms");
  result.metric("nn.decode_heap_allocs",
                static_cast<double>(heap_allocations(step)), "count");
}

}  // namespace perfbench
