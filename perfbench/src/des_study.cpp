/// des_study: one fixed simulated study on the four discrete-event
/// engines, run as whole rounds: the 1M-user continuum day under all
/// five placement policies (sim/continuum), plus fixed-size runs of the
/// online DES (serving/online_sim), the multi-tenant fleet DES
/// (serving/tenant_sim) and the sequence DES
/// (serving/sequence/sequence_sim). No live serving is involved; the
/// engines themselves are what is measured.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "data/datasets.hpp"
#include "nn/token_model.hpp"
#include "obs/critical_path.hpp"
#include "obs/trace.hpp"
#include "platform/device.hpp"
#include "platform/perf_model.hpp"
#include "preproc/cost_model.hpp"
#include "serving/metrics.hpp"
#include "serving/online_sim.hpp"
#include "serving/sequence/sequence_sim.hpp"
#include "serving/tenant_sim.hpp"
#include "sim/continuum/continuum_sim.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace cont = harvest::sim::continuum;
namespace seq = harvest::serving::sequence;

constexpr int kMinRounds = 2;
constexpr int kSetupReps = 5;
constexpr double kOnlineLoad = 0.3;        // utilization of the M/D/1 run
constexpr double kOnlineArrivals = 2e5;    // arrivals in the online run
constexpr double kPkTolerance = 0.05;      // relative, on the mean wait

const cont::PlacementPolicy kPolicies[5] = {
    cont::PlacementPolicy::kEdgeOnly, cont::PlacementPolicy::kCloudOnly,
    cont::PlacementPolicy::kEdgeFirst, cont::PlacementPolicy::kBandwidthAware,
    cont::PlacementPolicy::kAutoscale};

/// The 1M-user scouting-fleet day of the continuum ablation: 2000
/// Jetson edge nodes in 200 farms behind 5G uplinks, four V100 regions.
cont::ContinuumConfig continuum_day(std::uint64_t seed) {
  cont::ContinuumConfig config;
  auto& topo = config.topology;
  topo.regions = 4;
  topo.farms_per_region = 50;
  topo.nodes_per_farm = 10;
  topo.cloud_replicas = 8;
  topo.model = "ViT_Small";
  topo.dataset = "CRSA";
  topo.uplink = "5G-midband";
  topo.upload_bytes_per_image =
      data::find_dataset("CRSA")->image_stats().mean_pixels * 0.4;
  topo.edge = {"JetsonOrinNano", "CV2", 8, false};
  topo.cloud = {"V100", "DALI 224", 64, true};
  config.arrivals.users = 1'000'000;
  config.arrivals.images_per_user_per_day = 3.0;
  config.arrivals.session_rate_img_s = 4.0;
  config.arrivals.session_mean_s = 90.0;
  config.seed = seed;
  config.deadline_s = 10.0;
  config.placement.offload_queue_threshold = 8;
  config.placement.degrade_queue_threshold = 24;
  config.placement.min_replicas = 1;
  config.placement.max_replicas = topo.cloud_replicas;
  config.admission.max_queue_depth = 64;
  config.retry.max_attempts = 3;
  config.retry.initial_backoff_s = 0.25;
  config.retry.max_backoff_s = 2.0;
  config.faults.seed = seed ^ 7;
  config.faults.transient_error_rate = 0.005;
  config.faults.latency_spike_rate = 0.01;
  config.faults.latency_spike_s = 0.5;
  config.faults.stall_rate = 0.01;
  config.faults.stall_s = 2.0;
  config.slo.latency_target_s = config.deadline_s;
  config.slo.availability_target = 0.99;
  config.uplink_energy_j_per_byte = 2e-6;
  return config;
}

serving::TenantSimConfig tenant_fleet(std::uint64_t seed) {
  serving::TenantSimConfig config;
  config.policy = serving::FleetPolicy::kWfq;
  config.tenants = 1000;
  config.workers = 4;
  config.duration_s = 300.0;
  config.seed = seed;
  config.base_rate = 2.0;
  config.burst_on_s = 0.5;
  config.burst_off_s = 2.0;
  config.max_batch = 8;
  config.queue_capacity = 4096;
  config.hot_multiplier = 8.0;
  return config;
}

seq::SequenceSimConfig sequence_fleet(std::uint64_t seed) {
  seq::SequenceSimConfig config;
  config.policy = seq::BatchPolicy::kContinuous;
  config.arrival_rate = 400.0;
  config.duration_s = 1200.0;
  config.seed = seed;
  config.max_active = 32;
  config.queue_capacity = 4096;
  const nn::TokenModelConfig model{"agri_lm", "attn", 512, 128, 4, 4, 256};
  config.cost = seq::TokenCostModel::for_model(model, 50e9);
  return config;
}

/// What the online DES is priced with: batch-1 service time on the
/// device model, no overlap (service = preprocess + inference).
struct OnlinePlan {
  const platform::DeviceSpec* device = nullptr;
  data::DatasetSpec dataset;
  double service_s = 0.0;
  serving::OnlineSimConfig config;
};

OnlinePlan plan_online(std::uint64_t seed) {
  OnlinePlan plan;
  plan.device = platform::find_device("V100");
  plan.dataset = *data::find_dataset("Plant Village");
  const auto engine = platform::make_engine_model(*plan.device, "ViT_Small");
  const auto spec = nn::find_model_spec("ViT_Small");
  plan.service_s =
      engine.estimate(1).latency_s +
      preproc::estimate_preproc(*plan.device, plan.dataset.image_stats(),
                                preproc::PreprocMethod::kDali224, 1,
                                spec->input_size)
          .latency_s;
  serving::OnlineSimConfig& c = plan.config;
  c.arrival_rate_qps = kOnlineLoad / plan.service_s;
  c.duration_s = kOnlineArrivals / c.arrival_rate_qps;
  c.max_batch = 1;
  c.max_queue_delay_s = 0.0;
  c.instances = 1;
  c.preproc_method = preproc::PreprocMethod::kDali224;
  c.overlap_preproc = false;
  c.seed = seed;
  c.queue_capacity = 1 << 20;
  return plan;
}

struct Round {
  cont::ContinuumReport continuum[5];
  double continuum_s[5] = {};
  serving::OnlineSimReport online;
  serving::MetricsSnapshot online_metrics;
  double online_s = 0.0;
  serving::TenantSimReport tenant;
  double tenant_s = 0.0;
  seq::SequenceSimReport sequence;
  double sequence_s = 0.0;
  double wall_s = 0.0;

  double simulated_requests() const {
    double n = 0.0;
    for (const auto& r : continuum) n += static_cast<double>(r.submitted);
    return n + static_cast<double>(online.arrivals) +
           static_cast<double>(tenant.arrivals) +
           static_cast<double>(sequence.arrivals);
  }
};

Round run_round(const cont::ContinuumConfig& day, const OnlinePlan& online,
                const serving::TenantSimConfig& tenants,
                const seq::SequenceSimConfig& sequences) {
  Round round;
  const auto start = Clock::now();
  for (int p = 0; p < 5; ++p) {
    cont::ContinuumConfig config = day;
    config.placement.policy = kPolicies[p];
    const auto t0 = Clock::now();
    round.continuum[p] = cont::simulate_continuum(config);
    round.continuum_s[p] = seconds_since(t0);
  }
  {
    serving::MetricsRegistry registry;
    serving::OnlineSimConfig config = online.config;
    config.metrics = &registry;
    const auto t0 = Clock::now();
    round.online = serving::simulate_online(*online.device, "ViT_Small",
                                            online.dataset, config);
    round.online_s = seconds_since(t0);
    round.online_metrics = registry.snapshot(config.duration_s);
  }
  auto t0 = Clock::now();
  round.tenant = serving::simulate_tenants(tenants);
  round.tenant_s = seconds_since(t0);
  t0 = Clock::now();
  round.sequence = seq::simulate_sequences(sequences);
  round.sequence_s = seconds_since(t0);
  round.wall_s = seconds_since(start);
  return round;
}

bool same_online(const serving::OnlineSimReport& a,
                 const serving::OnlineSimReport& b) {
  return a.arrivals == b.arrivals && a.completed == b.completed &&
         a.rejected == b.rejected && a.shed == b.shed && a.failed == b.failed &&
         a.mean_latency_s == b.mean_latency_s &&
         a.p99_latency_s == b.p99_latency_s &&
         a.mean_batch_size == b.mean_batch_size &&
         a.instance_utilization == b.instance_utilization;
}

template <typename T>
bool same_bytes(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

}  // namespace

void run_des_study(const Options& options, Result& result) {
  // The study's configs; --seed salts every engine's arrival stream.
  const std::uint64_t seed = core::splitmix64(options.seed ^ 0xde5ULL);
  const cont::ContinuumConfig day = continuum_day(seed);
  const serving::TenantSimConfig tenants = tenant_fleet(seed);
  const seq::SequenceSimConfig sequences = sequence_fleet(seed);

  // Set-up: pricing the fleet topology and the online run's service
  // time on the device model, repeated.
  std::vector<double> setup, pricing;
  OnlinePlan online;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    const auto priced = cont::price_topology(day.topology);
    pricing.push_back(seconds_since(t0));
    if (!priced.is_ok()) {
      throw std::runtime_error("price_topology: " + priced.status().message());
    }
    online = plan_online(seed);
    setup.push_back(seconds_since(t0));
  }

  std::vector<Round> rounds;
  const auto start = Clock::now();
  do {
    rounds.push_back(run_round(day, online, tenants, sequences));
  } while (static_cast<int>(rounds.size()) < kMinRounds ||
           seconds_since(start) < options.seconds);

  // Every engine run is one operation; none may lose a request.
  std::int64_t runs = 0, broken = 0;
  for (const Round& r : rounds) {
    for (const auto& c : r.continuum) broken += c.conserved() ? 0 : 1;
    const serving::OnlineSimReport& o = r.online;
    broken += o.arrivals == o.completed + o.rejected + o.shed + o.failed ? 0 : 1;
    broken += r.tenant.conserved() ? 0 : 1;
    broken += r.sequence.conserved() ? 0 : 1;
    runs += 8;
  }
  result.phase("engine_runs", runs, broken);
  char line[240];
  std::snprintf(line, sizeof(line),
                "every engine run conserves requests (submitted == completed "
                "+ shed + failed + missed): %lld/%lld",
                static_cast<long long>(runs - broken),
                static_cast<long long>(runs));
  result.check(broken == 0, line);

  bool same_arrivals = true;
  for (const Round& r : rounds) {
    for (const auto& c : r.continuum) {
      same_arrivals = same_arrivals && c.submitted == r.continuum[0].submitted;
    }
  }
  std::snprintf(line, sizeof(line),
                "the five placement policies see the same %llu arrivals",
                static_cast<unsigned long long>(rounds[0].continuum[0].submitted));
  result.check(same_arrivals && rounds[0].continuum[0].submitted > 0, line);

  bool reproducible = true;
  for (std::size_t i = 1; i < rounds.size(); ++i) {
    for (int p = 0; p < 5; ++p) {
      reproducible = reproducible &&
                     same_bytes(rounds[i].continuum[p], rounds[0].continuum[p]);
    }
    reproducible = reproducible && same_online(rounds[i].online, rounds[0].online) &&
                   same_bytes(rounds[i].tenant, rounds[0].tenant) &&
                   same_bytes(rounds[i].sequence, rounds[0].sequence);
  }
  std::snprintf(line, sizeof(line),
                "%zu rounds of one config give identical reports", rounds.size());
  result.check(reproducible, line);

  // Queueing: the batch-1 online run is M/D/1, whose mean wait is the
  // Pollaczek-Khinchine form W = lambda S^2 / (2 (1 - rho)).
  const serving::MetricsSnapshot& m = rounds[0].online_metrics;
  const double service = m.mean_preprocess_s + m.mean_inference_s;
  const double lambda = online.config.arrival_rate_qps;
  const double rho = lambda * service;
  const double pk_wait = lambda * service * service / (2.0 * (1.0 - rho));
  const double rel_err = std::fabs(m.mean_queue_s - pk_wait) / pk_wait;
  std::snprintf(line, sizeof(line),
                "online DES mean wait %.4f ms vs Pollaczek-Khinchine %.4f ms "
                "(rho %.3f, %llu arrivals): error %.2f%% <= %.0f%%",
                m.mean_queue_s * 1e3, pk_wait * 1e3, rho,
                static_cast<unsigned long long>(rounds[0].online.arrivals),
                100.0 * rel_err, 100.0 * kPkTolerance);
  result.check(std::fabs(service - online.service_s) < 1e-9 * online.service_s &&
                   rel_err <= kPkTolerance,
               line);

  // End-to-end metrics. Every round repeats byte-identical work (the
  // reproducibility check above); each engine's time is its mean round,
  // which, unlike the fastest, does not drop as the host speeds up
  // enough to fit one more round into the run.
  auto mean_round = [&](auto seconds_of) {
    std::vector<double> seconds;
    for (const Round& r : rounds) seconds.push_back(seconds_of(r));
    return mean(seconds);
  };
  std::vector<double> day_ms;
  for (int p = 0; p < 5; ++p) {
    day_ms.push_back(
        mean_round([p](const Round& r) { return r.continuum_s[p]; }) * 1e3);
  }
  const double online_s = mean_round([](const Round& r) { return r.online_s; });
  const double tenant_s = mean_round([](const Round& r) { return r.tenant_s; });
  const double sequence_s =
      mean_round([](const Round& r) { return r.sequence_s; });
  double study_s = online_s + tenant_s + sequence_s;
  for (double ms : day_ms) study_s += ms * 1e-3;
  for (const Round& r : rounds) {
    std::snprintf(line, sizeof(line),
                  "round of %.0f simulated requests: %.2f s (days %.2f %.2f "
                  "%.2f %.2f %.2f, online %.2f, tenant %.2f, sequence %.2f)",
                  r.simulated_requests(), r.wall_s, r.continuum_s[0],
                  r.continuum_s[1], r.continuum_s[2], r.continuum_s[3],
                  r.continuum_s[4], r.online_s, r.tenant_s, r.sequence_s);
    result.note(line);
  }
  result.metric("setup_s", median(setup), "s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  result.metric("lat_p50_ms", median(day_ms), "ms");
  result.metric("lat_tail_ms", *std::max_element(day_ms.begin(), day_ms.end()),
                "ms");
  result.metric("throughput_per_s", rounds[0].simulated_requests() / study_s,
                "1/s");

  if (!options.trace) return;

  for (int p = 0; p < 5; ++p) {
    result.metric(std::string("sim.continuum_") +
                      cont::placement_policy_name(kPolicies[p]) + "_s",
                  day_ms[static_cast<std::size_t>(p)] * 1e-3, "s");
  }
  result.metric("sim.online_s", online_s, "s");
  result.metric("sim.tenant_s", tenant_s, "s");
  result.metric("sim.sequence_s", sequence_s, "s");
  result.metric("sim.price_topology_s", median(pricing), "s");

  // A traced edge_first day: per-hop spans of every 1000th image at
  // simulated timestamps, attributed by the same critical-path tool the
  // live server uses.
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  recorder.enable();
  cont::ContinuumConfig traced = day;
  traced.placement.policy = cont::PlacementPolicy::kEdgeFirst;
  traced.trace = &recorder;
  traced.trace_sample_every = 1000;
  const auto t0 = Clock::now();
  const cont::ContinuumReport traced_report = cont::simulate_continuum(traced);
  const double traced_ms = seconds_since(t0) * 1e3;
  recorder.disable();
  result.check(same_bytes(traced_report, rounds[0].continuum[2]),
               "tracing leaves the edge_first report unchanged");
  result.metric("obs.trace_overhead_ms", traced_ms - day_ms[2], "ms");
  const core::Json doc = recorder.to_json();
  if (!recorder.write(options.out_dir + "/trace_des_study.json")) {
    result.check(false, "write Chrome trace");
  }
  std::vector<double> stage[4], residue;
  std::size_t analyzed = 0;
  const std::vector<std::uint64_t> ids = obs::trace_ids(doc);
  for (std::uint64_t id : ids) {
    auto cp = obs::critical_path(doc, id);
    if (!cp.is_ok()) continue;
    ++analyzed;
    const obs::CriticalPath& c = cp.value();
    stage[0].push_back(c.segment(obs::Segment::kQueue) * 1e-3);
    stage[1].push_back(c.segment(obs::Segment::kPreprocess) * 1e-3);
    stage[2].push_back(c.segment(obs::Segment::kInference) * 1e-3);
    stage[3].push_back(c.segment(obs::Segment::kTransmit) * 1e-3);
    residue.push_back(c.unattributed_us * 1e-3);
  }
  std::snprintf(line, sizeof(line),
                "critical path of %zu/%zu sampled simulated images (mean ms): "
                "queue %.1f  preprocess %.1f  inference %.1f  transmit %.1f  "
                "residue %.1f",
                analyzed, ids.size(), mean(stage[0]), mean(stage[1]),
                mean(stage[2]), mean(stage[3]), mean(residue));
  result.check(analyzed > 0 && analyzed == ids.size(), line);
  result.metric("obs.stage_queue_ms", mean(stage[0]), "ms");
  result.metric("obs.stage_preprocess_ms", mean(stage[1]), "ms");
  result.metric("obs.stage_inference_ms", mean(stage[2]), "ms");
  result.metric("obs.stage_respond_ms", mean(stage[3]), "ms");
  result.metric("obs.residue_ms", mean(residue), "ms");
}

}  // namespace perfbench
