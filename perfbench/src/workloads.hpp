#pragma once

/// \file workloads.hpp
/// The four benchmark workloads. Each runs for `options.seconds`,
/// checks the program's outputs against computations of its own, and
/// fills `result` with the end-to-end metrics (untraced run) or the
/// per-layer metrics (traced run).

#include "harness.hpp"

namespace perfbench {

void run_plant_online(const Options& options, Result& result);
void run_crsa_realtime(const Options& options, Result& result);
void run_agri_lm(const Options& options, Result& result);
void run_des_study(const Options& options, Result& result);

}  // namespace perfbench
