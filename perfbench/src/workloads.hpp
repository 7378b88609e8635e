#pragma once

#include "harness.hpp"

namespace perfbench {

/// Closed loop, one caller: irf::load_design(deck) + IrFusionPipeline::analyze
/// per operation over a fixed set of large real-family decks.
WorkloadResult run_cold_signoff(const RunConfig& config);

/// Open loop, Poisson arrivals at a fixed rate into irf::Engine: mostly exact
/// repeats of cached designs plus a share of ECO value edits.
WorkloadResult run_serve_mix(const RunConfig& config);

/// IrFusionPipeline::fit for a fixed number of epochs, then evaluate on
/// held-out designs.
WorkloadResult run_train_fit(const RunConfig& config);

}  // namespace perfbench
