#include "sim/continuum/topology.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "data/datasets.hpp"
#include "nn/models.hpp"
#include "platform/device.hpp"
#include "platform/perf_model.hpp"
#include "preproc/cost_model.hpp"

namespace harvest::sim::continuum {

namespace {

std::optional<preproc::PreprocMethod> parse_preproc_method(
    const std::string& name) {
  using preproc::PreprocMethod;
  for (PreprocMethod method :
       {PreprocMethod::kDali224, PreprocMethod::kDali96, PreprocMethod::kDali32,
        PreprocMethod::kPyTorch, PreprocMethod::kCv2}) {
    if (name == preproc::preproc_method_name(method)) return method;
  }
  return std::nullopt;
}

core::Result<TierSpec> parse_tier(const core::Json& json, const TierSpec& base,
                                  const char* key) {
  TierSpec tier = base;
  const core::Json* node = json.find(key);
  if (node == nullptr) return tier;
  if (!node->is_object()) {
    return core::Status::invalid_argument(std::string("\"") + key +
                                          "\" must be an object");
  }
  tier.device = node->get_string("device", tier.device);
  tier.preproc = node->get_string("preproc", tier.preproc);
  tier.max_batch = node->get_int("max_batch", tier.max_batch);
  tier.overlap_preproc = node->get_bool("overlap_preproc",
                                        tier.overlap_preproc);
  if (tier.max_batch < 1) {
    return core::Status::invalid_argument(std::string(key) +
                                          ".max_batch must be >= 1");
  }
  return tier;
}

/// Service table of one tier on `device`: preprocessing (priced by the
/// workload's image stats) composed with inference per the overlap
/// setting, for every batch size up to the engine's OOM wall.
core::Result<TierCost> price_tier(const TierSpec& tier,
                                  const std::string& model_name,
                                  const preproc::WorkloadImageStats& stats) {
  const platform::DeviceSpec* device = platform::find_device(tier.device);
  if (device == nullptr) {
    return core::Status::invalid_argument("unknown device \"" + tier.device +
                                          "\"");
  }
  // HostCPU's spec is derived from the running machine's core count, so
  // a tier priced on it would make the report depend on the host.
  if (device == &platform::host_cpu()) {
    return core::Status::invalid_argument(
        "device \"" + tier.device +
        "\" is derived from the running host; continuum tiers must name a "
        "pinned Table 1 device");
  }
  const auto method = parse_preproc_method(tier.preproc);
  if (!method.has_value()) {
    return core::Status::invalid_argument("unknown preproc method \"" +
                                          tier.preproc + "\"");
  }
  auto spec = nn::find_model_spec(model_name);
  if (!spec.has_value()) {
    return core::Status::invalid_argument("unknown model \"" + model_name +
                                          "\"");
  }
  nn::ModelPtr model = nn::build_by_name(model_name);
  const nn::ModelProfile profile = model->profile(1);
  const platform::EngineModel engine(*device, *spec, profile);
  const platform::EngineModel engine_int8(*device, *spec, profile,
                                          platform::Precision::kINT8);

  TierCost cost;
  cost.power_w = device->power_w;
  cost.max_batch = std::min<std::int64_t>(
      tier.max_batch, std::max<std::int64_t>(engine.max_batch(), 1));
  cost.service_s.assign(static_cast<std::size_t>(cost.max_batch) + 1, 0.0);
  cost.degraded_s = cost.service_s;
  for (std::int64_t b = 1; b <= cost.max_batch; ++b) {
    const double pre =
        preproc::estimate_preproc(*device, stats, *method, b,
                                  spec->input_size)
            .latency_s;
    const double infer = engine.estimate(b).latency_s;
    const double infer8 = engine_int8.estimate(b).latency_s;
    const auto i = static_cast<std::size_t>(b);
    cost.service_s[i] =
        tier.overlap_preproc ? std::max(pre, infer) : pre + infer;
    cost.degraded_s[i] =
        tier.overlap_preproc ? std::max(pre, infer8) : pre + infer8;
  }
  return cost;
}

}  // namespace

core::Result<ContinuumTopology> parse_continuum_topology(
    const core::Json& json) {
  if (!json.is_object()) {
    return core::Status::invalid_argument("\"topology\" must be an object");
  }
  ContinuumTopology topology;
  topology.regions = json.get_int("regions", topology.regions);
  topology.farms_per_region =
      json.get_int("farms_per_region", topology.farms_per_region);
  topology.nodes_per_farm =
      json.get_int("nodes_per_farm", topology.nodes_per_farm);
  topology.cloud_replicas =
      json.get_int("cloud_replicas", topology.cloud_replicas);
  if (topology.regions < 1 || topology.farms_per_region < 1 ||
      topology.nodes_per_farm < 1 || topology.cloud_replicas < 1) {
    return core::Status::invalid_argument(
        "topology shape counts (regions, farms_per_region, nodes_per_farm, "
        "cloud_replicas) must all be >= 1");
  }
  auto edge = parse_tier(json, topology.edge, "edge");
  if (!edge.is_ok()) return edge.status();
  topology.edge = std::move(edge).value();
  auto cloud = parse_tier(json, topology.cloud, "cloud");
  if (!cloud.is_ok()) return cloud.status();
  topology.cloud = std::move(cloud).value();

  topology.model = json.get_string("model", topology.model);
  topology.dataset = json.get_string("dataset", topology.dataset);
  topology.uplink = json.get_string("uplink", topology.uplink);
  topology.upload_bytes_per_image =
      json.get_number("upload_bytes_per_image", topology.upload_bytes_per_image);
  if (topology.upload_bytes_per_image < 0.0) {
    return core::Status::invalid_argument(
        "upload_bytes_per_image must be >= 0 (0 = dataset mean)");
  }
  topology.edge_queue_capacity =
      json.get_int("edge_queue_capacity", topology.edge_queue_capacity);
  topology.uplink_queue_capacity =
      json.get_int("uplink_queue_capacity", topology.uplink_queue_capacity);
  topology.cloud_queue_capacity =
      json.get_int("cloud_queue_capacity", topology.cloud_queue_capacity);
  if (topology.edge_queue_capacity < 1 || topology.uplink_queue_capacity < 1 ||
      topology.cloud_queue_capacity < 1) {
    return core::Status::invalid_argument(
        "queue capacities must all be >= 1");
  }
  // Resolve every name now: a topology that parses is one that prices.
  auto priced = price_topology(topology);
  if (!priced.is_ok()) return priced.status();
  return topology;
}

core::Result<ContinuumCosts> price_topology(
    const ContinuumTopology& topology) {
  auto dataset = data::find_dataset(topology.dataset);
  if (!dataset.has_value()) {
    return core::Status::invalid_argument("unknown dataset \"" +
                                          topology.dataset + "\"");
  }
  const preproc::WorkloadImageStats stats = dataset->image_stats();

  ContinuumCosts costs;
  auto edge = price_tier(topology.edge, topology.model, stats);
  if (!edge.is_ok()) return edge.status();
  costs.edge = std::move(edge).value();
  auto cloud = price_tier(topology.cloud, topology.model, stats);
  if (!cloud.is_ok()) return cloud.status();
  costs.cloud = std::move(cloud).value();

  const platform::LinkSpec* link = platform::find_link(topology.uplink);
  if (link == nullptr) {
    return core::Status::invalid_argument("unknown uplink \"" +
                                          topology.uplink + "\"");
  }
  costs.uplink = *link;
  costs.upload_bytes = topology.upload_bytes_per_image > 0.0
                           ? topology.upload_bytes_per_image
                           : stats.mean_encoded_bytes;
  return costs;
}

}  // namespace harvest::sim::continuum
