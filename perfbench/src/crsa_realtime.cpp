/// crsa_realtime: raw 3840x2160 CRSA ground-vehicle frames, rectified
/// with the inverse-perspective warp, to a small ViT. Phase 1 paces
/// frames at a fixed frame rate into a batch-1 deployment (none is
/// dropped; latency runs from each frame's due time); phase 2 pushes a
/// recorded backlog through a batched deployment whose preprocessing
/// fans out across the batch. The 4K warp dominates and the network is
/// nearly idle: the mirror image of plant_online.

#include <array>
#include <cmath>
#include <cstdio>
#include <memory>

#include "data/datasets.hpp"
#include "data/synthetic.hpp"
#include "image_model.hpp"
#include "preproc/transforms.hpp"
#include "loadgen.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr double kFps = 4.0;            // paced frame rate of phase 1
constexpr double kPacedShare = 0.65;    // of --seconds, the rest is backlog
constexpr int kFrames = 3;              // distinct camera frames
constexpr int kBacklog = 8;             // frames per backlog round
constexpr int kSetupReps = 5;
constexpr int kSampledPixels = 4096;    // rectification check

VitDeployment small_vit(const std::string& name, std::int64_t max_batch,
                        std::int64_t instances) {
  VitDeployment d;
  d.name = name;
  d.image = 32;
  d.patch = 4;
  d.dim = 64;
  d.depth = 2;
  d.heads = 4;
  d.classes = 5;
  d.max_batch = max_batch;
  d.instances = instances;
  d.max_queue_delay_ms = 0.5;
  d.perspective = true;
  return d;
}

/// Solve the 8-DOF projective map taking `from[i]` to `to[i]` (direct
/// linear transform, Gaussian elimination with partial pivoting); the
/// ninth coefficient is 1.
std::array<double, 9> solve_homography(
    const std::array<std::array<double, 2>, 4>& from,
    const std::array<std::array<double, 2>, 4>& to) {
  double a[8][9] = {};
  for (int i = 0; i < 4; ++i) {
    const double x = from[i][0], y = from[i][1];
    const double u = to[i][0], v = to[i][1];
    double* r0 = a[2 * i];
    double* r1 = a[2 * i + 1];
    r0[0] = x; r0[1] = y; r0[2] = 1; r0[6] = -u * x; r0[7] = -u * y; r0[8] = u;
    r1[3] = x; r1[4] = y; r1[5] = 1; r1[6] = -v * x; r1[7] = -v * y; r1[8] = v;
  }
  for (int col = 0; col < 8; ++col) {
    int pivot = col;
    for (int r = col + 1; r < 8; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    for (int c = 0; c < 9; ++c) std::swap(a[col][c], a[pivot][c]);
    for (int r = 0; r < 8; ++r) {
      if (r == col) continue;
      const double f = a[r][col] / a[col][col];
      for (int c = col; c < 9; ++c) a[r][c] -= f * a[col][c];
    }
  }
  std::array<double, 9> h{};
  for (int i = 0; i < 8; ++i) h[static_cast<std::size_t>(i)] = a[i][8] / a[i][i];
  h[8] = 1.0;
  return h;
}

/// Compare the program's rectified frame with this benchmark's own
/// inverse-perspective mapping and bilinear sampling at sampled pixels.
/// Returns the largest per-channel difference seen.
int compare_rectification(const preproc::Image& frame,
                          const preproc::Image& warped, core::Rng& rng,
                          int* compared) {
  const double w = static_cast<double>(frame.width());
  const double h = static_cast<double>(frame.height());
  // The forward camera's ground trapezoid and the top-down rectangle it
  // is rectified onto; output pixels are sampled dst -> src.
  const std::array<std::array<double, 2>, 4> trapezoid = {
      {{w * 0.30, h * 0.35}, {w * 0.70, h * 0.35}, {w, h}, {0.0, h}}};
  const std::array<std::array<double, 2>, 4> rectangle = {
      {{0.0, 0.0}, {w, 0.0}, {w, h}, {0.0, h}}};
  const std::array<double, 9> back = solve_homography(rectangle, trapezoid);
  int worst = 0;
  *compared = 0;
  for (int s = 0; s < kSampledPixels; ++s) {
    const std::int64_t x = rng.uniform_int(0, frame.width() - 1);
    const std::int64_t y = rng.uniform_int(0, frame.height() - 1);
    const double den = back[6] * x + back[7] * y + back[8];
    const double fx = (back[0] * x + back[1] * y + back[2]) / den;
    const double fy = (back[3] * x + back[4] * y + back[5]) / den;
    // Skip samples whose source sits on the frame border, where the two
    // solutions may round to opposite sides of the in-bounds test.
    const double margin = 1e-6;
    if (fx < margin || fy < margin || fx > w - 1 - margin ||
        fy > h - 1 - margin) {
      continue;
    }
    const auto x0 = static_cast<std::int64_t>(fx);
    const auto y0 = static_cast<std::int64_t>(fy);
    const std::int64_t x1 = std::min<std::int64_t>(x0 + 1, frame.width() - 1);
    const std::int64_t y1 = std::min<std::int64_t>(y0 + 1, frame.height() - 1);
    const double wx = fx - static_cast<double>(x0);
    const double wy = fy - static_cast<double>(y0);
    for (std::int64_t c = 0; c < frame.channels(); ++c) {
      const double top = frame.at(x0, y0, c) * (1 - wx) + frame.at(x1, y0, c) * wx;
      const double bottom =
          frame.at(x0, y1, c) * (1 - wx) + frame.at(x1, y1, c) * wx;
      const int mine = static_cast<int>(
          std::clamp(top * (1 - wy) + bottom * wy + 0.5, 0.0, 255.0));
      worst = std::max(worst, std::abs(mine - static_cast<int>(
                                                  warped.at(x, y, c))));
    }
    ++*compared;
  }
  return worst;
}

}  // namespace

void run_crsa_realtime(const Options& options, Result& result) {
  const VitDeployment realtime = small_vit("crsa_realtime_b1", 1, 2);
  const VitDeployment backlog = small_vit("crsa_backlog_b4", 4, 1);

  // Inputs: a few distinct raw 4K frames and the frame schedule, from
  // the seed. Frames are generated up front, never inside the paced loop.
  core::Rng rng(core::splitmix64(options.seed ^ 0xc75aULL));
  const data::SyntheticDataset dataset(*data::find_dataset("CRSA"),
                                       options.seed);
  std::vector<preproc::EncodedImage> frames;
  for (int i = 0; i < kFrames; ++i) {
    frames.push_back(
        dataset.make_sample(rng.uniform_int(0, dataset.size() - 1)).image);
  }
  const double paced_s = options.seconds * (options.trace ? 0.4 : kPacedShare);
  const double backlog_s =
      options.seconds * (options.trace ? 0.2 : 1 - kPacedShare);
  const std::vector<Arrival> arrivals = paced_arrivals(
      kFps, static_cast<std::size_t>(kFps * paced_s), kFrames, rng);
  std::vector<int> backlog_keys(kBacklog);
  for (int& key : backlog_keys) {
    key = static_cast<int>(rng.uniform_int(0, kFrames - 1));
  }

  core::Json repository = core::Json::object();
  repository["models"] = core::Json::array();
  repository["models"].push_back(realtime.entry());
  repository["models"].push_back(backlog.entry());
  ImageRun run;
  std::unique_ptr<serving::Server> server =
      load_server(repository, 3, kSetupReps, run.setup_s);

  // Warm-up, not measured: a frame through each batch-1 stream and a
  // full batch through the batched one.
  run_drain(*server, realtime.name, {0, 1}, frames, 2);
  run_drain(*server, backlog.name, {0, 1, 2, 0}, frames, 4);

  // Phase 1: paced frames, batch 1; phase 2: backlog rounds through the
  // batched deployment.
  run_image_phases(*server, realtime.name, arrivals, backlog.name,
                   backlog_keys, static_cast<std::size_t>(kBacklog),
                   backlog_s, frames, options.trace, run);
  server->shutdown();
  report_image_run(run, "paced_frames", "backlog", options.trace,
                   options.out_dir + "/trace_crsa_realtime.json", result);

  // Checks: the program's rectification against this benchmark's own
  // homography, then every served answer against the direct path
  // (decode -> warp -> resize -> normalize -> batch-1 forward).
  nn::ModelPtr reference = build_reference(realtime);
  std::vector<std::vector<float>> expected;
  std::vector<double> decode_ms, warp_ms, resize_ms;
  int worst = 0, compared = 0;
  for (const preproc::EncodedImage& frame : frames) {
    auto t0 = Clock::now();
    const preproc::Image decoded = preproc::decode_image(frame).value();
    decode_ms.push_back(seconds_since(t0) * 1e3);
    t0 = Clock::now();
    const preproc::Image warped =
        preproc::perspective_warp(
            decoded, preproc::crsa_rectification(decoded.width(),
                                                 decoded.height()),
            decoded.width(), decoded.height())
            .value();
    warp_ms.push_back(seconds_since(t0) * 1e3);
    int frame_compared = 0;
    worst = std::max(worst,
                     compare_rectification(decoded, warped, rng, &frame_compared));
    compared += frame_compared;
    t0 = Clock::now();
    const preproc::Image small =
        preproc::resize(warped, realtime.image, realtime.image);
    resize_ms.push_back(seconds_since(t0) * 1e3);
    tensor::Tensor input(tensor::Shape{1, 3, realtime.image, realtime.image},
                         tensor::DType::kF32);
    preproc::normalize_into(small, preproc::Normalization{}, input, 0);
    const tensor::Tensor logits = reference->forward(input);
    expected.emplace_back(logits.f32(), logits.f32() + logits.numel());
  }
  char line[200];
  std::snprintf(line, sizeof(line),
                "rectified frames match an independent homography + bilinear "
                "sampling at %d sampled pixels (max channel difference %d <= 1)",
                compared, worst);
  result.check(compared > kFrames * kSampledPixels / 2 && worst <= 1, line);

  std::size_t checked = 0, same = 0;
  for (const Outcome* o : run.answers()) {
    if (!o->ok) continue;
    ++checked;
    same += same_logits(o->response.logits,
                        expected[static_cast<std::size_t>(o->key)]);
  }
  std::snprintf(line, sizeof(line),
                "served logits equal the direct path bit for bit: %zu/%zu",
                same, checked);
  result.check(checked > 0 && same == checked, line);

  if (!options.trace) return;

  result.metric("preproc.decode_ms", median(decode_ms), "ms");
  result.metric("preproc.warp_ms", median(warp_ms), "ms");
  result.metric("preproc.resize_ms", median(resize_ms), "ms");
  // The same warp with the default OpenMP team on this thread: where an
  // intra-op parallel warp would show.
  const preproc::Image decoded = preproc::decode_image(frames.front()).value();
  const preproc::Homography rectify =
      preproc::crsa_rectification(decoded.width(), decoded.height());
  double warp_team_ms = 0.0;
  with_default_team([&] {
    warp_team_ms = time_ms(3, [&] {
      preproc::perspective_warp(decoded, rectify, decoded.width(),
                                decoded.height())
          .value();
    });
  });
  result.metric("preproc.warp_ms_team", warp_team_ms, "ms");
  report_nn_layers(backlog, nullptr, frames.front(), "", result);
}

}  // namespace perfbench
