#pragma once

/// \file image_model.hpp
/// The image deployments of the benchmark, described once and used
/// twice: as a repository entry the server loads, and as a model the
/// benchmark builds itself, outside the server, to compute reference
/// answers and to time the `nn` layer directly.

#include <cstdint>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "harness.hpp"
#include "nn/graph.hpp"
#include "preproc/codec.hpp"
#include "preproc/pipeline.hpp"

namespace perfbench {

struct VitDeployment {
  std::string name;
  std::int64_t image = 32, patch = 2, dim = 192, depth = 12, heads = 3;
  std::int64_t classes = 39;
  std::uint64_t seed = 2026;  ///< weight seed
  std::string precision = "fp32";
  std::int64_t max_batch = 8;
  std::int64_t instances = 1;
  double max_queue_delay_ms = 1.0;
  bool perspective = false;

  /// The repository entry (`serving::load_repository` schema).
  core::Json entry() const;
  preproc::PreprocSpec preproc_spec() const;
};

/// Build, initialize, quantize (int8) and pack the model exactly as the
/// repository loader describes it, without going through the server.
nn::ModelPtr build_reference(const VitDeployment& deployment);

/// Model-ready input for one encoded image ([1, 3, S, S]).
tensor::Tensor preprocess_one(const preproc::EncodedImage& image,
                              const preproc::PreprocSpec& spec);

/// Batch-1 logits of `image` through `model`.
std::vector<float> reference_logits(nn::Model& model,
                                    const preproc::EncodedImage& image,
                                    const preproc::PreprocSpec& spec);

/// Time the `nn` layer on the workload's own input, through the
/// deployment's own backend type (`serving::NativeBackend` over a
/// reference model of `deployment`, and of `int8` when given): batch-1 and
/// max-batch forwards on this thread, the max-batch fp32 forward again
/// with the default OpenMP team, achieved GFLOP/s from the analyzer's op
/// counts, heap allocations of a steady-state batch-1 `infer`, and the
/// perf model's prediction for the max-batch forward on the host spec.
void report_nn_layers(const VitDeployment& deployment,
                      const VitDeployment* int8,
                      const preproc::EncodedImage& sample,
                      const std::string& table3_name, Result& result);

}  // namespace perfbench
