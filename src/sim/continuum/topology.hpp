#pragma once

/// \file topology.hpp
/// The continuum fleet description: thousands of Jetson-class edge
/// nodes grouped into farms, farms grouped into regions, each farm
/// reaching its regional cloud tier over one bandwidth/latency-modelled
/// uplink (platform::LinkSpec). A topology is pure configuration —
/// `price_topology()` turns it into calibrated per-tier batch service
/// tables (platform::EngineModel + preproc::estimate_preproc) the DES
/// consumes, so the simulator never re-derives device costs in its hot
/// loop. See docs/CONTINUUM.md for the schema and failure modes.

#include <cstdint>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "core/status.hpp"
#include "platform/network.hpp"
#include "preproc/pipeline.hpp"

namespace harvest::sim::continuum {

/// One compute tier (the edge nodes, or a region's cloud replicas).
struct TierSpec {
  std::string device = "JetsonOrinNano";  ///< Table 1 device (not HostCPU)
  std::string preproc = "CV2";            ///< preproc_method_name
  std::int64_t max_batch = 8;             ///< clamped to the engine's OOM wall
  /// Pipeline preprocessing with inference (batch service = max of the
  /// two stages instead of their sum) — the paper's §4.3 overlap knob.
  bool overlap_preproc = false;
};

struct ContinuumTopology {
  std::int64_t regions = 4;            ///< cloud tiers
  std::int64_t farms_per_region = 50;  ///< uplinks per region
  std::int64_t nodes_per_farm = 10;    ///< edge boxes per farm

  TierSpec edge{"JetsonOrinNano", "CV2", 8, false};
  TierSpec cloud{"V100", "DALI 224", 64, true};
  std::int64_t cloud_replicas = 8;     ///< engines per region (static cap)

  std::string model = "ViT_Small";     ///< nn::find_model_spec name
  std::string dataset = "CRSA";        ///< data::find_dataset name
  std::string uplink = "5G-midband";   ///< platform::find_link name

  /// Bytes shipped per offloaded image. 0 = the dataset's mean encoded
  /// size (raw sensor frames); edge re-encode typically shrinks this.
  double upload_bytes_per_image = 0.0;

  std::int64_t edge_queue_capacity = 512;     ///< per node
  std::int64_t uplink_queue_capacity = 4096;  ///< per farm
  std::int64_t cloud_queue_capacity = 65536;  ///< per region

  std::int64_t farms() const { return regions * farms_per_region; }
  std::int64_t nodes() const { return farms() * nodes_per_farm; }
};

/// Parse a `"topology"` JSON object (keys documented in
/// docs/MODEL_REPOSITORY.md § Continuum). Unknown device/model/dataset/
/// uplink names, a `HostCPU` tier, and non-positive shape counts are
/// kInvalidArgument — an invalid topology never reaches the simulator.
core::Result<ContinuumTopology> parse_continuum_topology(
    const core::Json& json);

/// Calibrated batch costs of one tier: service_s[b] prices a batch of
/// size b (preprocessing + inference per the tier's overlap setting),
/// degraded_s[b] prices the INT8 twin the degrade policy falls back to.
struct TierCost {
  std::int64_t max_batch = 1;        ///< after the engine's OOM clamp
  std::vector<double> service_s;     ///< index = batch size; [0] unused
  std::vector<double> degraded_s;    ///< INT8 twin, same indexing
  double power_w = 0.0;              ///< board power (energy accounting)

  double per_image_s() const {       ///< admission prior at full batch
    return service_s.back() / static_cast<double>(max_batch);
  }
};

/// Everything the DES needs priced ahead of time.
struct ContinuumCosts {
  TierCost edge;
  TierCost cloud;
  platform::LinkSpec uplink;
  double upload_bytes = 0.0;  ///< per offloaded image, excl. framing
};

/// Resolve every name in `topology` against the platform/model/dataset
/// catalogs and precompute the service tables. kInvalidArgument on any
/// unknown name, or on a tier naming the host-derived `HostCPU` (the
/// same failure modes as parsing, for topologies built programmatically):
/// tiers price only from pinned catalog specs, so a report never depends
/// on the machine that runs the simulation.
core::Result<ContinuumCosts> price_topology(const ContinuumTopology& topology);

}  // namespace harvest::sim::continuum
