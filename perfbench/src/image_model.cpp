#include "image_model.hpp"

#include <cstdio>
#include <functional>
#include <stdexcept>

#include "nn/init.hpp"
#include "nn/models.hpp"
#include "nn/quant.hpp"
#include "platform/device.hpp"
#include "platform/perf_model.hpp"
#include "serving/native_backend.hpp"

namespace perfbench {

core::Json VitDeployment::entry() const {
  core::Json e = core::Json::object();
  e["name"] = name;
  e["backend"] = "native";
  e["architecture"] = "vit";
  e["image"] = image;
  e["patch"] = patch;
  e["dim"] = dim;
  e["depth"] = depth;
  e["heads"] = heads;
  e["classes"] = classes;
  e["seed"] = static_cast<std::int64_t>(seed);
  e["precision"] = precision;
  e["max_batch"] = max_batch;
  e["instances"] = instances;
  e["max_queue_delay_ms"] = max_queue_delay_ms;
  core::Json pre = core::Json::object();
  pre["output_size"] = image;
  pre["perspective"] = perspective;
  e["preproc"] = pre;
  return e;
}

preproc::PreprocSpec VitDeployment::preproc_spec() const {
  preproc::PreprocSpec spec;
  spec.output_size = image;
  spec.perspective = perspective;
  return spec;
}

nn::ModelPtr build_reference(const VitDeployment& d) {
  nn::ViTConfig config;
  config.name = d.name;
  config.image = d.image;
  config.patch = d.patch;
  config.dim = d.dim;
  config.depth = d.depth;
  config.heads = d.heads;
  config.num_classes = d.classes;
  nn::ModelPtr model = nn::build_vit(config);
  nn::init_weights(*model, d.seed);
  if (d.precision == "int8") nn::quantize_model(*model);
  model->prepare();
  return model;
}

tensor::Tensor preprocess_one(const preproc::EncodedImage& image,
                              const preproc::PreprocSpec& spec) {
  tensor::Tensor input(
      tensor::Shape{1, 3, spec.output_size, spec.output_size},
      tensor::DType::kF32);
  const core::Status status = preproc::preprocess_into(image, spec, input, 0);
  if (!status.is_ok()) {
    throw std::runtime_error("reference preprocessing: " + status.message());
  }
  return input;
}

std::vector<float> reference_logits(nn::Model& model,
                                    const preproc::EncodedImage& image,
                                    const preproc::PreprocSpec& spec) {
  const tensor::Tensor logits = model.forward(preprocess_one(image, spec));
  return {logits.f32(), logits.f32() + logits.numel()};
}

namespace {

/// `sample` in every slot of a `deployment.max_batch` batch.
tensor::Tensor full_batch(const preproc::EncodedImage& sample,
                          const VitDeployment& deployment) {
  tensor::Tensor batch(tensor::Shape{deployment.max_batch, 3, deployment.image,
                                     deployment.image},
                       tensor::DType::kF32);
  for (std::int64_t slot = 0; slot < deployment.max_batch; ++slot) {
    const core::Status status = preproc::preprocess_into(
        sample, deployment.preproc_spec(), batch, slot);
    if (!status.is_ok()) throw std::runtime_error(status.message());
  }
  return batch;
}

}  // namespace

void report_nn_layers(const VitDeployment& d, const VitDeployment* int8,
                      const preproc::EncodedImage& sample,
                      const std::string& table3_name, Result& result) {
  const tensor::Tensor one = preprocess_one(sample, d.preproc_spec());
  const tensor::Tensor full = full_batch(sample, d);
  // The deployments' own backend type: every activation in its request
  // arena, the logits cloned out, the arena recycled.
  serving::NativeBackend fp32(build_reference(d), d.max_batch, d.precision);
  auto infer = [](serving::NativeBackend& backend, const tensor::Tensor& input) {
    return [&backend, &input] {
      auto out = backend.infer(input);
      if (!out.is_ok()) throw std::runtime_error(out.status().message());
    };
  };
  const double b1_ms = time_ms(5, infer(fp32, one));
  const double bmax_ms = time_ms(3, infer(fp32, full));
  // Steady-state heap traffic of one served batch-1 forward (the logits
  // clone is the program's own), after a warm-up call.
  const std::function<void()> served_one = infer(fp32, one);
  served_one();
  result.metric("nn.forward_heap_allocs",
                static_cast<double>(heap_allocations(served_one)), "count");
  double team_ms = 0.0;
  with_default_team([&] { team_ms = time_ms(3, infer(fp32, full)); });
  const double flops = 2.0 * fp32.model().profile(d.max_batch).total_macs();
  result.metric("nn.fp32_forward_ms_b1", b1_ms, "ms");
  result.metric("nn.fp32_forward_ms_bmax", bmax_ms, "ms");
  result.metric("nn.fp32_forward_ms_bmax_team", team_ms, "ms");
  result.metric("nn.fp32_gflop_per_s", flops / (bmax_ms * 1e6), "GFLOP/s");
  if (int8 != nullptr) {
    serving::NativeBackend quantized(build_reference(*int8), int8->max_batch,
                                     int8->precision);
    const tensor::Tensor int8_full = full_batch(sample, *int8);
    const double q_ms = time_ms(3, infer(quantized, int8_full));
    const double ops =
        2.0 * quantized.model().profile(int8->max_batch).total_macs();
    result.metric("nn.int8_forward_ms_bmax", q_ms, "ms");
    result.metric("nn.int8_gop_per_s", ops / (q_ms * 1e6), "GOP/s");
  }

  // The device model's price of the same forward on the host spec.
  const platform::DeviceSpec& host = platform::host_cpu();
  double predicted_s = 0.0;
  if (!table3_name.empty()) {
    predicted_s = platform::make_engine_model(host, table3_name)
                      .estimate(d.max_batch)
                      .latency_s;
  } else {
    nn::ModelProfile profile = fp32.model().profile(1);
    nn::ModelSpec model_spec{d.name, "Transformer", d.image,
                             static_cast<double>(profile.param_count) / 1e6,
                             profile.projection_macs() / 1e9};
    predicted_s = platform::EngineModel(host, model_spec, std::move(profile),
                                        platform::Precision::kFP32)
                      .estimate(d.max_batch)
                      .latency_s;
  }
  result.metric("platform.predicted_forward_ms_bmax", predicted_s * 1e3, "ms");
  char line[160];
  std::snprintf(line, sizeof(line),
                "perf model on %s predicts %.2f ms for the batch-%lld forward "
                "measured at %.2f ms",
                host.name.c_str(), predicted_s * 1e3,
                static_cast<long long>(d.max_batch), bmax_ms);
  result.note(line);
}

}  // namespace perfbench
