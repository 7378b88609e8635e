#pragma once

// Workload inputs, generated before the program under test sees them. The
// designs whose maps are scored (the sign-off decks, the serving population,
// the training and held-out sets) are fixed suites: drawn from seed-
// independent streams, so the accuracy metrics do not swing with the data
// drawn. The run seed drives everything dynamic: deck order, arrival times,
// which design each request repeats or edits, and the ECO edits themselves.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/grid2d.hpp"
#include "common/rng.hpp"
#include "pg/design.hpp"

namespace perfbench {

/// Seeds of the fixed design suites.
inline constexpr std::uint64_t kSignoffSuiteSeed = 101;
inline constexpr std::uint64_t kServeSuiteSeed = 202;
inline constexpr std::uint64_t kTrainSuiteSeed = 303;

/// Resolution and rough-iteration budget of the shared model (CI defaults).
inline constexpr int kImageSize = 32;
inline constexpr int kRoughIterations = 3;

/// Train the shared model deterministically (fixed seed, CI-default
/// PipelineConfig) and write it as an IRFS checkpoint. The same build
/// always writes the same weights, so the file is made once per checkout.
void prepare_model(const std::string& path);

/// A generated design with its golden bottom-layer map.
struct Deck {
  std::shared_ptr<const irf::pg::PgDesign> design;
  irf::GridF golden;  ///< golden bottom-layer IR drop at kImageSize (volts)
  std::string path;   ///< SPICE deck on disk ("" when kept in memory only)
  std::size_t bytes = 0;  ///< deck file size
};

/// Golden bottom-layer map of a design at kImageSize.
irf::GridF golden_map(const irf::pg::PgDesign& design);

/// `count` real-family decks at PG grid `grid_px`, each with a distinct
/// topology. With a non-empty `dir` every deck is also written to
/// `<dir>/<name>/netlist.sp` (the layout irf::load_design names decks by).
std::vector<Deck> make_real_decks(int grid_px, int count, irf::Rng& rng,
                                  const std::string& prefix, const std::string& dir);

/// An ECO value edit of `base`: either a new current map (every load
/// rescaled by its own factor) or a few resistor value edits. The topology
/// is unchanged, so the engine's warm-start path may serve it.
std::shared_ptr<const irf::pg::PgDesign> make_eco_edit(const irf::pg::PgDesign& base,
                                                      irf::Rng& rng,
                                                      const std::string& name);

}  // namespace perfbench
