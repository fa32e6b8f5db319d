/// plant_online: Plant Village uploads (256x256 AgJPEG) to a
/// repository-loaded ViT_Tiny (Table 3 preset). Phase 1 sends Poisson
/// uploads open-loop at a fixed rate well below capacity to the fp32
/// deployment (small, latency-bound batches); phase 2 drains a recorded
/// upload set through the int8 twin with a window of three full batches
/// (throughput-bound batches). The forward pass dominates, so `nn` and
/// batching changes show here and `preproc` changes barely do.

#include <cmath>
#include <cstdio>
#include <memory>

#include "data/datasets.hpp"
#include "data/synthetic.hpp"
#include "image_model.hpp"
#include "nn/models.hpp"
#include "preproc/transforms.hpp"
#include "loadgen.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr double kRateQps = 2.5;       // open-loop uploads per second
constexpr double kOpenShare = 0.8;     // of --seconds, the rest drains
constexpr int kPool = 12;              // distinct uploads
constexpr int kDrainSet = 32;          // uploads per drain round
constexpr std::size_t kDrainWindow = 24;  // three full batches
constexpr int kSetupReps = 3;

VitDeployment vit_tiny(const std::string& name, const std::string& precision,
                       std::int64_t max_batch, std::int64_t instances) {
  const nn::ViTConfig preset = nn::vit_tiny_config(39);
  VitDeployment d;
  d.name = name;
  d.image = preset.image;
  d.patch = preset.patch;
  d.dim = preset.dim;
  d.depth = preset.depth;
  d.heads = preset.heads;
  d.classes = preset.num_classes;
  d.precision = precision;
  d.max_batch = max_batch;
  d.instances = instances;
  d.max_queue_delay_ms = 1.0;
  return d;
}

}  // namespace

void run_plant_online(const Options& options, Result& result) {
  // Single-threaded streams (perfbench/README.md, thread budget): three
  // for the open loop, so an upload rarely waits for a busy stream, with
  // batches of at most 4 (its arrivals rarely batch beyond 2); two
  // batch-8 streams for the int8 drain.
  const VitDeployment fp32 = vit_tiny("vit_tiny_fp32", "fp32", 4, 3);
  const VitDeployment int8 = vit_tiny("vit_tiny_int8", "int8", 8, 2);

  // Inputs: a pool of distinct uploads and the send schedules, all from
  // the seed. Never timed.
  core::Rng rng(core::splitmix64(options.seed ^ 0x91a47ULL));
  const data::SyntheticDataset dataset(*data::find_dataset("Plant Village"),
                                       options.seed);
  std::vector<preproc::EncodedImage> pool;
  for (int i = 0; i < kPool; ++i) {
    pool.push_back(
        dataset.make_sample(rng.uniform_int(0, dataset.size() - 1)).image);
  }
  const double open_s = options.seconds * (options.trace ? 0.4 : kOpenShare);
  const double drain_s = options.seconds * (options.trace ? 0.2 : 1 - kOpenShare);
  const std::vector<Arrival> arrivals = poisson_arrivals(
      kRateQps, static_cast<std::size_t>(kRateQps * open_s), kPool, rng);
  std::vector<int> drain_keys(kDrainSet);
  for (int& key : drain_keys) key = static_cast<int>(rng.uniform_int(0, kPool - 1));

  // Set-up: the repository load (build, quantize, AOT pack), repeated.
  core::Json repository = core::Json::object();
  repository["models"] = core::Json::array();
  repository["models"].push_back(fp32.entry());
  repository["models"].push_back(int8.entry());
  ImageRun run;
  std::unique_ptr<serving::Server> server =
      load_server(repository, 1, kSetupReps, run.setup_s);

  // Warm-up, not measured: a full batch for every stream of each
  // deployment, so every stream's request arena reaches its steady
  // state before timing.
  auto warm = [&](const VitDeployment& d) {
    const std::size_t n = static_cast<std::size_t>(d.max_batch * d.instances);
    run_drain(*server, d.name, {drain_keys.begin(), drain_keys.begin() + n},
              pool, n);
  };
  warm(fp32);
  warm(int8);

  // Phase 1: open-loop fp32 uploads at a fixed rate; phase 2: int8
  // drain rounds of the recorded upload set.
  run_image_phases(*server, fp32.name, arrivals, int8.name, drain_keys,
                   kDrainWindow, drain_s, pool, options.trace, run);
  server->shutdown();
  report_image_run(run, "fp32_uploads", "int8_drain", options.trace,
                   options.out_dir + "/trace_plant_online.json", result);

  // Checks. Reference answers come from the benchmark's own batch-1
  // forwards of each upload, outside the server.
  nn::ModelPtr reference = build_reference(fp32);
  std::vector<std::vector<float>> expected;
  for (const preproc::EncodedImage& image : pool) {
    expected.push_back(reference_logits(*reference, image, fp32.preproc_spec()));
  }
  std::size_t fp32_checked = 0, fp32_same = 0;
  for (const std::vector<Outcome>* phase : {&run.open, &run.traced}) {
    for (const Outcome& o : *phase) {
      if (!o.ok) continue;
      ++fp32_checked;
      fp32_same += same_logits(o.response.logits,
                               expected[static_cast<std::size_t>(o.key)]);
    }
  }
  char line[200];
  std::snprintf(line, sizeof(line),
                "fp32 answers equal their own upload's batch-1 forward "
                "bit for bit: %zu/%zu",
                fp32_same, fp32_checked);
  result.check(fp32_checked > 0 && fp32_same == fp32_checked, line);

  std::size_t int8_checked = 0, int8_agree = 0, drained = 0;
  double diff2 = 0.0, ref2 = 0.0;
  for (const DrainRound& r : run.rounds) {
    drained += r.outcomes.size();
    for (const Outcome& o : r.outcomes) {
      if (!o.ok) continue;
      const std::vector<float>& ref = expected[static_cast<std::size_t>(o.key)];
      const std::vector<float>& got = o.response.logits;
      if (got.size() != ref.size()) continue;
      ++int8_checked;
      int8_agree += argmax(got.data(), got.size()) ==
                    argmax(ref.data(), ref.size());
      for (std::size_t c = 0; c < ref.size(); ++c) {
        const double d = static_cast<double>(got[c]) - ref[c];
        diff2 += d * d;
        ref2 += static_cast<double>(ref[c]) * ref[c];
      }
    }
  }
  const double agreement =
      int8_checked > 0 ? static_cast<double>(int8_agree) / int8_checked : 0.0;
  const double rel_l2 = ref2 > 0.0 ? std::sqrt(diff2 / ref2) : 1.0;
  std::snprintf(line, sizeof(line),
                "int8 twin vs fp32: top-1 agreement %zu/%zu (%.1f%% >= 75%%), "
                "logits relative L2 %.2f%% (<= 5%%)",
                int8_agree, int8_checked, 100.0 * agreement, 100.0 * rel_l2);
  result.check(int8_checked == drained &&
                   agreement >= 0.75 && rel_l2 <= 0.05,
               line);

  if (!options.trace) return;

  // Per-layer metrics of preproc and nn on the workload's own uploads.
  std::vector<double> decode_ms, resize_ms;
  for (const preproc::EncodedImage& image : pool) {
    preproc::Image decoded;
    decode_ms.push_back(time_ms(3, [&] {
      decoded = preproc::decode_image(image).value();
    }));
    resize_ms.push_back(time_ms(3, [&] {
      preproc::resize(decoded, fp32.image, fp32.image);
    }));
  }
  result.metric("preproc.decode_ms", median(decode_ms), "ms");
  result.metric("preproc.resize_ms", median(resize_ms), "ms");
  report_nn_layers(fp32, &int8, pool.front(), "ViT_Tiny", result);
}

}  // namespace perfbench
