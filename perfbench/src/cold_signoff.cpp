// cold_signoff: what `irf_cli analyze` does for each deck of a sign-off run.
// Every operation parses a large deck from disk and analyses it from
// scratch (IrFusionPipeline::analyze keeps no cache), so the numerical
// layers (spice, pg, solver/linalg, features) carry most of the time and
// serve carries none.

#include <optional>

#include "features/extractor.hpp"
#include "inputs.hpp"
#include "irf.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kGridPx = 256;    // ~19.5k nodes, ~30k resistors per deck
constexpr int kNumDecks = 16;  // the fixed sign-off suite
constexpr int kSetupRepeats = 15;
constexpr int kSpmvReps = 50;

/// The analyze() path, one public call at a time, with a span around each:
/// parse, MNA + AMG setup (PgSolver), rough PCG, feature fusion, one
/// batch-1 U-Net forward. Mirrors IrFusionPipeline::analyze_with_diagnostics.
irf::GridF traced_analyze(irf::IrFusionPipeline& pipeline, const Deck& deck,
                          Tracer& tracer, int root, std::uint64_t request,
                          double& parse_ms) {
  irf::pg::PgDesign design;
  {
    ScopedSpan s(&tracer, "spice.parse", root, request);
    design = irf::load_design(deck.path);
    s.close();
    parse_ms = tracer.duration_ms(s.index());
  }
  std::optional<irf::pg::PgSolver> solver;
  {
    ScopedSpan s(&tracer, "pg.solver_build", root, request);
    solver.emplace(design);
  }
  irf::pg::PgSolution rough;
  {
    ScopedSpan s(&tracer, "solver.rough_pcg", root, request);
    rough = solver->solve_rough(pipeline.config().rough_iterations);
  }
  irf::train::Sample sample;
  {
    ScopedSpan s(&tracer, "features.extract", root, request);
    irf::features::FeatureOptions opts;
    opts.image_size = pipeline.config().image_size;
    opts.hierarchical = true;
    opts.include_numerical = true;
    sample.hier = irf::features::extract_features(design, &rough, opts);
    opts.hierarchical = false;
    sample.flat = irf::features::extract_features(design, &rough, opts);
    sample.rough_bottom = irf::features::label_map(design, rough, opts.image_size);
  }
  irf::GridF map;
  {
    ScopedSpan s(&tracer, "nn.forward_b1", root, request);
    map = irf::train::predict_volts(pipeline.model(), sample, pipeline.view(),
                                    pipeline.normalizer());
  }
  if (pipeline.refines_rough_solution()) {
    for (std::size_t i = 0; i < map.size(); ++i) map.data()[i] += sample.rough_bottom.data()[i];
  }
  return map;
}

/// Layers PgSolver's constructor runs back to back, called one by one on
/// the same deck: MNA assembly, AMG setup, and the SpMV they are built on.
struct SetupProbe {
  int amg_levels = 0;
  double spmv_us = 0.0;
  double spmv_gbs = 0.0;
};
SetupProbe probe_setup(const irf::pg::PgDesign& design, Tracer& tracer,
                       std::uint64_t request) {
  SetupProbe p;
  ScopedSpan root(&tracer, "cold_signoff.probe", -1, request);
  irf::pg::MnaSystem mna;
  {
    ScopedSpan s(&tracer, "pg.mna", root.index(), request);
    mna = irf::pg::assemble_mna(design.netlist);
  }
  {
    ScopedSpan s(&tracer, "solver.amg_setup", root.index(), request);
    const irf::solver::AmgPcgSolver amg(mna.conductance);
    s.close();
    p.amg_levels = amg.hierarchy().num_levels();
  }
  const irf::linalg::CsrMatrix& a = mna.conductance;
  const irf::linalg::Vec x(static_cast<std::size_t>(a.rows()), 1.0);
  irf::linalg::Vec y(x.size(), 0.0);
  a.multiply(x, y);  // first call may build lazy kernel-side state
  ScopedSpan s(&tracer, "linalg.spmv_x50", root.index(), request);
  const Clock::time_point t0 = Clock::now();
  for (int r = 0; r < kSpmvReps; ++r) a.multiply(x, y);
  const double per_call = seconds_between(t0, Clock::now()) / kSpmvReps;
  s.close();
  // Bytes computed, not measured: values + column indices per nonzero, the
  // row pointer, one read of x and one write of y.
  const double bytes = 12.0 * static_cast<double>(a.nnz()) +
                       4.0 * (a.rows() + 1) + 16.0 * a.rows();
  p.spmv_us = 1e6 * per_call;
  p.spmv_gbs = bytes / per_call / 1e9;
  return p;
}

}  // namespace

WorkloadResult run_cold_signoff(const RunConfig& config) {
  WorkloadResult out;
  irf::Rng suite_rng(kSignoffSuiteSeed);
  const Clock::time_point gen_start = Clock::now();
  const std::vector<Deck> decks =
      make_real_decks(config.smoke ? 64 : kGridPx, config.smoke ? 2 : kNumDecks, suite_rng,
                      "signoff_", config.work_dir + "/cold_signoff");
  out.notes["input_gen_s"] = seconds_between(gen_start, Clock::now());
  // The seed sets the order the suite is cycled in.
  std::vector<std::size_t> order(decks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  irf::Rng order_rng(config.seed);
  order_rng.shuffle(order);

  // Set-up: restore the model from its IRFS checkpoint.
  std::vector<double> setup_s;
  std::optional<irf::IrFusionPipeline> pipeline;
  for (int i = 0; i < kSetupRepeats; ++i) {
    out.tally.attempt("setup");
    const double cpu0 = process_cpu_seconds();
    pipeline.emplace(irf::load_checkpoint(config.model_path));
    setup_s.push_back(process_cpu_seconds() - cpu0);
  }

  // One untimed pass over the first deck faults in code and allocator pages.
  {
    out.tally.attempt("warmup");
    const Deck& deck = decks[order[0]];
    const irf::GridF map = pipeline->analyze(irf::load_design(deck.path));
    const MapCheck c = check_map(map, deck.golden, kMaeBoundVolts);
    if (!c.ok) out.tally.fail("warmup", c.reason);
  }

  Tracer tracer;
  std::vector<double> latency_ms;        // untraced operations, wall clock
  std::vector<double> cpu_ms;            // untraced operations, process CPU
  std::vector<double> traced_ms;         // traced operations (trace runs only)
  // Accuracy per deck (analyze is deterministic, so each deck's map is the
  // same every time it is analysed): the run reports the mean over decks.
  std::vector<double> deck_mae(decks.size(), -1.0), deck_mirde(decks.size(), 0.0);
  std::vector<double> parse_mb_s;
  std::vector<double> amg_levels, spmv_us, spmv_gbs;
  std::uint64_t op = 0;
  const Clock::time_point start = Clock::now();
  double busy_s = 0.0;
  while (seconds_between(start, Clock::now()) < config.seconds) {
    const std::size_t d = order[op % decks.size()];
    const Deck& deck = decks[d];
    // Trace runs alternate whole passes over the deck set, so every deck is
    // both traced and untraced.
    const bool traced = config.trace && (op / decks.size()) % 2 == 1;
    out.tally.attempt("measure");
    irf::GridF map;
    try {
      if (traced) {
        ScopedSpan root(&tracer, "cold_signoff.op", -1, op);
        double parse_ms = 0.0;
        map = traced_analyze(*pipeline, deck, tracer, root.index(), op, parse_ms);
        root.close();
        traced_ms.push_back(tracer.duration_ms(root.index()));
        parse_mb_s.push_back(static_cast<double>(deck.bytes) / 1e3 / parse_ms);
        const SetupProbe p = probe_setup(*deck.design, tracer, op);
        amg_levels.push_back(p.amg_levels);
        spmv_us.push_back(p.spmv_us);
        spmv_gbs.push_back(p.spmv_gbs);
      } else {
        const double cpu0 = process_cpu_seconds();
        const Clock::time_point t0 = Clock::now();
        map = pipeline->analyze(irf::load_design(deck.path));
        const double s = seconds_between(t0, Clock::now());
        cpu_ms.push_back(1e3 * (process_cpu_seconds() - cpu0));
        busy_s += s;
        latency_ms.push_back(1e3 * s);
      }
    } catch (const std::exception& e) {
      out.tally.fail("measure", std::string("threw: ") + e.what());
      ++op;
      continue;
    }
    if (config.inject == "corrupt-map" && op == 1) corrupt_map(map);
    const MapCheck c = check_map(map, deck.golden, kMaeBoundVolts);
    if (!c.ok) {
      out.tally.fail("measure", c.reason);
    } else if (deck_mae[d] < 0.0) {
      deck_mae[d] = c.mae;
      deck_mirde[d] = c.mirde;
    }
    ++op;
  }

  out.notes["decks"] = static_cast<double>(decks.size());
  out.notes["grid_px"] = config.smoke ? 64 : kGridPx;
  out.notes["latency_samples"] = static_cast<double>(latency_ms.size());
  out.notes["deck_nodes_first"] = decks[0].design->netlist.num_nodes();
  out.notes["deck_resistors_first"] =
      static_cast<double>(decks[0].design->netlist.resistors().size());

  std::vector<double> mae, mirde;
  for (std::size_t d = 0; d < decks.size(); ++d) {
    if (deck_mae[d] < 0.0) continue;
    mae.push_back(deck_mae[d]);
    mirde.push_back(deck_mirde[d]);
  }
  Metrics& e2e = out.end_to_end;
  e2e["setup_s"] = {median(setup_s), "s"};
  e2e["cpu_ms_per_op"] = {median(cpu_ms), "ms"};
  e2e["mae_1e4v"] = {1e4 * mean(mae), "1e-4V"};
  e2e["mirde_1e4v"] = {1e4 * mean(mirde), "1e-4V"};

  if (config.trace) {
    Metrics& pl = out.per_layer;
    pl["cold_signoff.p50_ms"] = {windowed_quantile(latency_ms, 0.50, kLatencyWindows), "ms"};
    pl["cold_signoff.throughput_ops_s"] = {busy_s > 0.0 ? latency_ms.size() / busy_s : 0.0,
                                           "1/s"};
    pl["spice.parse_ms"] = {tracer.median_ms("spice.parse"), "ms"};
    pl["spice.parse_mb_s"] = {median(parse_mb_s), "MB/s"};
    pl["pg.solver_build_ms"] = {tracer.median_ms("pg.solver_build"), "ms"};
    pl["pg.mna_ms"] = {tracer.median_ms("pg.mna"), "ms"};
    pl["solver.amg_setup_ms"] = {tracer.median_ms("solver.amg_setup"), "ms"};
    pl["solver.amg_levels"] = {median(amg_levels), "count"};
    pl["solver.rough_pcg_ms"] = {tracer.median_ms("solver.rough_pcg"), "ms"};
    pl["linalg.spmv_us"] = {median(spmv_us), "us"};
    pl["linalg.spmv_gbs_computed"] = {median(spmv_gbs), "GB/s"};
    pl["features.extract_ms"] = {tracer.median_ms("features.extract"), "ms"};
    pl["nn.forward_b1_ms"] = {tracer.median_ms("nn.forward_b1"), "ms"};
    std::vector<double> all_ms = latency_ms;
    all_ms.insert(all_ms.end(), traced_ms.begin(), traced_ms.end());
    pl["cold_signoff.p90_ms"] = {quantile(all_ms, 0.90), "ms"};
    pl["cold_signoff.unattributed_pct"] = {median(tracer.unattributed_pct("cold_signoff.op")),
                                           "%"};
    const double untraced = median(latency_ms);
    pl["cold_signoff.trace_overhead_pct"] = {
        untraced > 0.0 ? 100.0 * (median(traced_ms) / untraced - 1.0) : 0.0, "%"};
    out.notes["traced_samples"] = static_cast<double>(traced_ms.size());
    tracer.write_json(config.work_dir + "/spans_cold_signoff.json");
  }
  return out;
}

}  // namespace perfbench
