#include "inputs.hpp"

#include <filesystem>
#include <set>
#include <stdexcept>

#include "features/extractor.hpp"
#include "irf.hpp"
#include "spice/writer.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using irf::pg::PgDesign;

void prepare_model(const std::string& path) {
  irf::ScaleConfig scale;  // CI scale: 16 fake + 10 real designs at 32 px
  scale.seed = 7;
  scale.image_size = kImageSize;
  const irf::train::DesignSet set = irf::train::build_design_set(scale);

  irf::PipelineConfig config;  // CI defaults: base_channels 8, 6 epochs
  config.image_size = kImageSize;
  config.rough_iterations = kRoughIterations;
  irf::IrFusionPipeline pipeline(config);
  pipeline.fit(set.train);
  const std::string tmp = path + ".tmp";
  irf::save_checkpoint(pipeline, tmp);
  fs::rename(tmp, path);
}

irf::GridF golden_map(const PgDesign& design) {
  const irf::pg::PgSolver solver(design);
  return irf::features::label_map(design, solver.solve_golden(), kImageSize);
}

std::vector<Deck> make_real_decks(int grid_px, int count, irf::Rng& rng,
                                  const std::string& prefix, const std::string& dir) {
  std::vector<Deck> decks;
  std::set<std::uint64_t> topologies;
  for (int attempt = 0; static_cast<int>(decks.size()) < count; ++attempt) {
    if (attempt > 4 * count) {
      throw std::runtime_error("could not generate distinct deck topologies");
    }
    irf::Rng design_rng = rng.fork();
    const std::string name = prefix + std::to_string(decks.size());
    auto design = std::make_shared<PgDesign>(
        irf::pg::generate_real_design(grid_px, design_rng, name));
    if (!topologies.insert(irf::serve::design_topology_hash(*design)).second) continue;
    Deck deck;
    deck.golden = golden_map(*design);
    if (!dir.empty()) {
      const fs::path deck_dir = fs::path(dir) / name;
      fs::create_directories(deck_dir);
      deck.path = (deck_dir / "netlist.sp").string();
      irf::spice::write_file(design->netlist, deck.path);
      deck.bytes = static_cast<std::size_t>(fs::file_size(deck.path));
    }
    deck.design = std::move(design);
    decks.push_back(std::move(deck));
  }
  return decks;
}

std::shared_ptr<const PgDesign> make_eco_edit(const PgDesign& base, irf::Rng& rng,
                                              const std::string& name) {
  auto eco = std::make_shared<PgDesign>(base);
  eco->name = name;
  const irf::spice::Netlist& src = base.netlist;
  if (rng.bernoulli(0.5)) {
    // New current map: same loads, each rescaled by its own factor.
    irf::spice::Netlist net;
    for (irf::spice::NodeId id = 0; id < src.num_nodes(); ++id) {
      net.intern_node(src.node_name(id));
    }
    for (const auto& r : src.resistors()) net.add_resistor(r.name, r.a, r.b, r.ohms);
    for (const auto& i : src.current_sources()) {
      net.add_current_source(i.name, i.node, i.amps * rng.uniform(0.85, 1.15));
    }
    for (const auto& v : src.voltage_sources()) net.add_voltage_source(v.name, v.node, v.volts);
    for (const auto& c : src.capacitors()) net.add_capacitor(c.name, c.a, c.b, c.farads);
    eco->netlist = std::move(net);
  } else {
    // A few wire edits (e.g. a widened or narrowed segment).
    const int edits = rng.uniform_int(1, 3);
    const int n = static_cast<int>(src.resistors().size());
    for (int e = 0; e < edits; ++e) {
      const auto index = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      eco->netlist.set_resistor_ohms(index,
                                     src.resistors()[index].ohms * rng.uniform(0.5, 2.0));
    }
  }
  return eco;
}

}  // namespace perfbench
