// train_fit: IrFusionPipeline::fit with CI defaults (curriculum, 4x rotation
// augmentation) on a small fake+real training set, then evaluate on
// held-out designs. The only workload that runs the U-Net backward pass and
// the Adam update, so an inference-only nn change that costs training shows
// here and nowhere else.

#include <optional>

#include "features/extractor.hpp"
#include "inputs.hpp"
#include "irf.hpp"
#include "models/unet.hpp"
#include "nn/optimizer.hpp"
#include "train/curriculum.hpp"
#include "train/normalizer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kTrainFake = 2;
constexpr int kTrainReal = 2;
constexpr int kHeldOut = 8;     // real designs
constexpr int kEpochs = 2;
constexpr int kSetupRepeats = 15;
constexpr int kStepProbes = 16;

irf::PipelineConfig fit_config() {
  irf::PipelineConfig c;  // CI defaults otherwise
  c.image_size = kImageSize;
  c.rough_iterations = kRoughIterations;
  c.epochs = kEpochs;
  return c;
}

/// Training sample-steps one fit() runs: the curriculum schedule over the
/// rotation-augmented set, rebuilt the way fit() seeds it.
std::size_t steps_per_fit(const std::vector<irf::train::PreparedDesign>& train) {
  const irf::PipelineConfig c = fit_config();
  std::vector<irf::train::Sample> kinds;
  for (int rot = 0; rot < (c.use_augmentation ? 4 : 1); ++rot) {
    for (const auto& p : train) {
      irf::train::Sample s;
      s.kind = p.design->kind;
      kinds.push_back(std::move(s));
    }
  }
  irf::train::CurriculumOptions options;
  options.enabled = c.use_curriculum;
  irf::train::CurriculumScheduler scheduler(kinds, c.epochs, options, irf::Rng(c.seed + 1));
  std::size_t steps = 0;
  for (int e = 0; e < c.epochs; ++e) steps += scheduler.epoch_indices(e).size();
  return steps;
}

/// Golden label solves: one PgSolver + tight solve per design.
std::vector<irf::train::PreparedDesign> prepare(const std::vector<irf::pg::PgDesign>& designs,
                                                Tracer* tracer,
                                                std::vector<double>& golden_iterations) {
  std::vector<irf::train::PreparedDesign> out;
  for (std::size_t i = 0; i < designs.size(); ++i) {
    irf::train::PreparedDesign p;
    p.design = std::make_unique<irf::pg::PgDesign>(designs[i]);
    p.solver = std::make_unique<irf::pg::PgSolver>(*p.design);
    ScopedSpan s(tracer, "solver.golden", -1, i);
    p.golden = p.solver->solve_golden();
    s.close();
    golden_iterations.push_back(p.golden.iterations);
    out.push_back(std::move(p));
  }
  return out;
}

/// Feature fusion on each training design, as fit() prepares its samples.
void probe_features(const std::vector<irf::train::PreparedDesign>& train, Tracer& tracer) {
  for (std::size_t i = 0; i < train.size(); ++i) {
    const irf::pg::PgDesign& d = *train[i].design;
    const irf::pg::PgSolution rough = train[i].solver->solve_rough(kRoughIterations);
    ScopedSpan s(&tracer, "features.extract", -1, i);
    irf::features::FeatureOptions opts;
    opts.image_size = kImageSize;
    opts.hierarchical = true;
    const auto hier = irf::features::extract_features(d, &rough, opts);
    opts.hierarchical = false;
    const auto flat = irf::features::extract_features(d, &rough, opts);
    irf::features::label_map(d, rough, kImageSize);
    (void)hier;
    (void)flat;
  }
}

/// Training steps of a fresh model on the training samples, the way
/// train_model runs one: forward, loss, backward, clip, Adam update.
void probe_train_steps(const std::vector<irf::train::PreparedDesign>& train,
                       Tracer& tracer) {
  const irf::PipelineConfig c = fit_config();
  irf::IrFusionPipeline view_of(c);
  const irf::train::FeatureView view = view_of.view();
  const std::vector<irf::train::Sample> samples =
      irf::train::make_samples(train, c.rough_iterations, c.image_size);
  const irf::train::Normalizer normalizer = irf::train::Normalizer::fit(samples);
  irf::Rng rng(c.seed);
  auto model = irf::models::make_ir_fusion_net(
      irf::train::view_channel_count(samples.front(), view), c.base_channels, rng,
      c.use_inception, c.use_cbam);
  model->set_training(true);
  irf::nn::Adam optimizer(model->parameters(), c.learning_rate);
  for (int step = 0; step < kStepProbes; ++step) {
    const irf::train::Sample& sample = samples[static_cast<std::size_t>(step) % samples.size()];
    const irf::nn::Tensor input = normalizer.input_tensor(sample, view);
    const irf::nn::Tensor target = irf::train::Normalizer::label_tensor(sample);
    ScopedSpan root(&tracer, "nn.train_step", -1, static_cast<std::uint64_t>(step));
    irf::nn::Tensor pred = model->forward(input);
    irf::nn::Tensor loss = model->loss(pred, target);
    optimizer.zero_grad();
    {
      ScopedSpan s(&tracer, "nn.backward", root.index(), static_cast<std::uint64_t>(step));
      loss.backward();
    }
    optimizer.clip_grad_norm(5.0);
    optimizer.step();
  }
  model->set_training(false);
}

}  // namespace

WorkloadResult run_train_fit(const RunConfig& config) {
  WorkloadResult out;
  // Training and held-out sets are both fixed suites, so the fit is the same
  // computation on every run and the seed has nothing left to vary: two
  // epochs on four designs give accuracy that swings by a third with the
  // data drawn, more than any usable regression bound.
  irf::Rng train_rng(kTrainSuiteSeed);
  irf::Rng test_rng = train_rng.fork();
  const int fake = config.smoke ? 1 : kTrainFake;
  const int real = config.smoke ? 1 : kTrainReal;
  const int held_out = config.smoke ? 1 : kHeldOut;
  std::vector<irf::pg::PgDesign> train_designs, test_designs;
  for (int i = 0; i < fake; ++i) {
    irf::Rng r = train_rng.fork();
    train_designs.push_back(
        irf::pg::generate_fake_design(kImageSize, r, "fake_" + std::to_string(i)));
  }
  for (int i = 0; i < real; ++i) {
    irf::Rng r = train_rng.fork();
    train_designs.push_back(
        irf::pg::generate_real_design(kImageSize, r, "real_" + std::to_string(i)));
  }
  for (int i = 0; i < held_out; ++i) {
    irf::Rng r = test_rng.fork();
    test_designs.push_back(
        irf::pg::generate_real_design(kImageSize, r, "held_out_" + std::to_string(i)));
  }

  Tracer tracer;
  Tracer* const setup_tracer = config.trace ? &tracer : nullptr;
  std::vector<double> setup_s, golden_iterations;
  std::vector<irf::train::PreparedDesign> train, test;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    out.tally.attempt("setup");
    golden_iterations.clear();
    const double cpu0 = process_cpu_seconds();
    train = prepare(train_designs, setup_tracer, golden_iterations);
    test = prepare(test_designs, setup_tracer, golden_iterations);
    setup_s.push_back(process_cpu_seconds() - cpu0);
  }
  std::vector<irf::GridF> goldens;
  for (const auto& p : test) {
    goldens.push_back(irf::features::label_map(*p.design, p.golden, kImageSize));
  }
  const std::size_t steps = steps_per_fit(train);

  std::vector<double> op_ms, op_cpu_ms, traced_ms, fit_s, mae, mirde;
  std::uint64_t op = 0;
  const Clock::time_point start = Clock::now();
  // At least one operation per run, and one of each kind in a trace run.
  const std::uint64_t min_ops = config.trace ? 2 : 1;
  while (op < min_ops || seconds_between(start, Clock::now()) < config.seconds) {
    const bool traced = config.trace && op % 2 == 1;
    out.tally.attempt("measure");
    std::optional<irf::IrFusionPipeline> pipeline;
    irf::train::AggregateMetrics agg;
    try {
      ScopedSpan root(traced ? &tracer : nullptr, "train_fit.op", -1, op);
      const double cpu0 = process_cpu_seconds();
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan s(traced ? &tracer : nullptr, "pipeline.fit", root.index(), op);
        pipeline.emplace(fit_config());
        pipeline->fit(train);
      }
      const Clock::time_point t1 = Clock::now();
      {
        ScopedSpan s(traced ? &tracer : nullptr, "pipeline.evaluate", root.index(), op);
        agg = pipeline->evaluate(test);
      }
      const double ms = 1e3 * seconds_between(t0, Clock::now());
      (traced ? traced_ms : op_ms).push_back(ms);
      if (!traced) op_cpu_ms.push_back(1e3 * (process_cpu_seconds() - cpu0));
      fit_s.push_back(seconds_between(t0, t1));
    } catch (const std::exception& e) {
      out.tally.fail("measure", std::string("threw: ") + e.what());
      ++op;
      continue;
    }
    // Gate: the trained model's map of every held-out design.
    bool ok = true;
    for (std::size_t i = 0; i < test.size() && ok; ++i) {
      irf::GridF map = pipeline->analyze(*test[i].design);
      if (config.inject == "corrupt-map" && op == 0 && i == 0) corrupt_map(map);
      const MapCheck c = check_map(map, goldens[i], kMaeBoundVolts);
      if (!c.ok) {
        out.tally.fail("measure", c.reason);
        ok = false;
      }
    }
    if (ok) {
      mae.push_back(agg.mae);
      mirde.push_back(agg.mirde);
    }
    ++op;
  }

  out.notes["fits"] = static_cast<double>(fit_s.size());
  out.notes["steps_per_fit"] = static_cast<double>(steps);
  out.notes["epochs"] = kEpochs;
  out.notes["train_designs"] = static_cast<double>(train.size());
  out.notes["held_out_designs"] = static_cast<double>(test.size());

  Metrics& e2e = out.end_to_end;
  e2e["setup_s"] = {median(setup_s), "s"};
  e2e["cpu_ms_per_op"] = {median(op_cpu_ms), "ms"};
  e2e["mae_1e4v"] = {1e4 * mean(mae), "1e-4V"};
  e2e["mirde_1e4v"] = {1e4 * mean(mirde), "1e-4V"};

  if (config.trace) {
    probe_features(train, tracer);
    probe_train_steps(train, tracer);
    Metrics& pl = out.per_layer;
    pl["train_fit.p50_ms"] = {windowed_quantile(op_ms, 0.50, kLatencyWindows), "ms"};
    pl["train_fit.throughput_ops_s"] = {static_cast<double>(steps) / median(fit_s), "1/s"};
    pl["solver.golden_ms"] = {tracer.median_ms("solver.golden"), "ms"};
    pl["solver.golden_iterations"] = {median(golden_iterations), "count"};
    pl["features.extract_ms"] = {tracer.median_ms("features.extract"), "ms"};
    pl["nn.train_step_ms"] = {tracer.median_ms("nn.train_step"), "ms"};
    pl["nn.backward_ms"] = {tracer.median_ms("nn.backward"), "ms"};
    pl["train_fit.unattributed_pct"] = {median(tracer.unattributed_pct("train_fit.op")), "%"};
    const double base = median(op_ms);
    pl["train_fit.trace_overhead_pct"] = {
        base > 0.0 ? 100.0 * (median(traced_ms) / base - 1.0) : 0.0, "%"};
    out.notes["traced_samples"] = static_cast<double>(traced_ms.size());
    tracer.write_json(config.work_dir + "/spans_train_fit.json");
  }
  return out;
}

}  // namespace perfbench
