#include "deco/scenario/harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <utility>

#include "deco/core/learner.h"
#include "deco/core/thread_pool.h"
#include "deco/eval/metrics.h"
#include "deco/runtime/session.h"
#include "deco/runtime/session_manager.h"
#include "deco/tensor/check.h"

namespace deco::scenario {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Everything one session needs outside the SessionManager: its world and
/// test set, the decorator chain feeding its queue, the ground-truth labels
/// of every submitted segment, and the forgetting meter.
struct SessionCtx {
  std::string name;
  std::unique_ptr<data::ProceduralImageWorld> world;
  std::unique_ptr<data::Dataset> test;
  std::unique_ptr<data::TemporalStream> base;
  std::unique_ptr<data::FaultyStream> faulty;
  std::vector<std::unique_ptr<data::SegmentSource>> chain;
  data::SegmentSource* head = nullptr;
  std::vector<std::vector<int64_t>> submitted_labels;
  eval::ForgettingTracker tracker;
  /// False when the runtime's pool-budget admission rejected this session
  /// (memory-pressure scenarios). Rejected sessions submit nothing and are
  /// excluded from every per-session metric.
  bool admitted = true;
};

}  // namespace

void HarnessOptions::validate() const {
  DECO_CHECK(segments >= 0, "harness: segments must be >= 0");
  DECO_CHECK(ipc >= 1, "harness: ipc must be >= 1");
  DECO_CHECK(model_width >= 1 && model_depth >= 1,
             "harness: model shape must be >= 1");
  DECO_CHECK(pretrain_per_class >= 1 && pretrain_epochs >= 0,
             "harness: pretrain knobs out of range");
  DECO_CHECK(test_per_class >= 1, "harness: test_per_class must be >= 1");
  DECO_CHECK(model_update_epochs >= 1 && beta >= 1,
             "harness: model-update knobs out of range");
  DECO_CHECK(condenser_iterations >= 1,
             "harness: condenser_iterations must be >= 1");
  DECO_CHECK(eval_every_segments >= 0,
             "harness: eval_every_segments must be >= 0");
}

CellResult run_cell(const ScenarioSpec& spec, const std::string& method,
                    const HarnessOptions& options) {
  spec.validate();
  options.validate();
  const uint64_t seed = options.seed;
  // What every session shares; the loop adds its variant and seed lineage.
  runtime::SessionRecipe base;
  base.method = method;
  base.model_width = options.model_width;
  base.model_depth = options.model_depth;
  base.ipc = options.ipc;
  base.deco.storage.cache_dtype = spec.cache_dtype;
  base.deco.beta = options.beta;
  base.deco.model_update_epochs = options.model_update_epochs;
  base.deco.condenser.iterations = options.condenser_iterations;
  base.baseline.storage.cache_dtype = spec.cache_dtype;
  base.baseline.beta = options.beta;
  base.baseline.model_update_epochs = options.model_update_epochs;
  base.labeled_per_class = options.pretrain_per_class;
  base.pretrain_epochs = options.pretrain_epochs;
  base.labeled_seed = seed + 1;
  base.validate();
  const double t_start = now_seconds();

  data::StreamConfig sc = spec.stream;
  if (options.segments > 0) sc.total_segments = options.segments;

  runtime::RuntimeConfig rc;
  rc.queue_depth = spec.queue_depth;
  rc.overflow = spec.overflow;
  rc.keep_reports = true;
  if (spec.pool_budget_mb > 0) rc.pool_budget_mb = spec.pool_budget_mb;
  runtime::SessionManager manager(rc);

  // ---- build sessions -------------------------------------------------------
  std::vector<SessionCtx> sessions(static_cast<size_t>(spec.sessions));
  for (int64_t i = 0; i < spec.sessions; ++i) {
    SessionCtx& ctx = sessions[static_cast<size_t>(i)];
    ctx.name = "cell" + std::to_string(i);
    const uint64_t si = static_cast<uint64_t>(i);

    SessionVariant variant;
    if (!spec.variants.empty())
      variant = spec.variants[static_cast<size_t>(i) % spec.variants.size()];

    data::DatasetSpec ds = dataset_spec_by_name(spec.dataset);
    if (variant.image_hw > 0) ds.height = ds.width = variant.image_hw;
    // The world is a pure function of (spec, seed): sessions with identical
    // variants observe the same world, heterogeneous ones get their own.
    ctx.world =
        std::make_unique<data::ProceduralImageWorld>(ds, seed * 7919 + 17);
    ctx.test = std::make_unique<data::Dataset>(
        ctx.world->make_test_set(options.test_per_class, seed + 2));

    runtime::SessionRecipe recipe = base;
    if (variant.model_width > 0) recipe.model_width = variant.model_width;
    if (variant.ipc > 0) recipe.ipc = variant.ipc;
    recipe.model_seed = seed * 0x9E37 + si * 1315423911ull + 0xC0FFEE;
    recipe.learner_seed = seed + 1000 + si;
    recipe.condenser_seed = (seed + si * 977) ^ 0xD3C0DE;
    runtime::LearnerHandle session = runtime::build_session(recipe, *ctx.world);
    // Under a memory-pressure budget, admission is expected to reject part
    // of the fleet — that's the measurement, not a failure. Rejected
    // sessions get no stream and drop out of every metric below.
    try {
      manager.add_session(ctx.name, std::move(session.learner),
                          std::move(session.keepalive));
    } catch (const Error&) {
      ctx.admitted = false;
      continue;
    }

    // ---- decorator chain: base -> [faults] -> [class-inc] -> [drift]
    //      -> [label noise] --------------------------------------------------
    ctx.base = std::make_unique<data::TemporalStream>(*ctx.world, sc,
                                                      seed + 100 + si);
    data::SegmentSource* head;
    if (spec.faults.any()) {
      ctx.faulty = std::make_unique<data::FaultyStream>(
          *ctx.base, spec.faults, (seed ^ 0xFA017ull) + si);
      ctx.chain.push_back(
          std::make_unique<data::SourceOf<data::FaultyStream>>(*ctx.faulty));
    } else {
      ctx.chain.push_back(
          std::make_unique<data::SourceOf<data::TemporalStream>>(*ctx.base));
    }
    head = ctx.chain.back().get();
    if (spec.class_incremental) {
      ctx.chain.push_back(std::make_unique<data::ClassIncrementalStream>(
          *ctx.world, *head, spec.phases, seed * 71 + 13 + si));
      head = ctx.chain.back().get();
    }
    if (spec.drift.active()) {
      ctx.chain.push_back(std::make_unique<data::DriftStream>(
          *head, spec.drift, seed * 31 + 7 + si));
      head = ctx.chain.back().get();
    }
    if (spec.label_noise.active()) {
      ctx.chain.push_back(std::make_unique<data::LabelNoiseStream>(
          *head, spec.label_noise, ds.num_classes, seed * 53 + 11 + si));
      head = ctx.chain.back().get();
    }
    ctx.head = head;
  }

  // ---- replay under the scenario's arrival schedule -------------------------
  CellResult cell;
  cell.scenario = spec.name;
  cell.method = method;
  cell.sessions = spec.sessions;
  cell.cache_dtype = dtype_name(spec.cache_dtype);
  SessionCtx* first_admitted = nullptr;
  for (SessionCtx& ctx : sessions) {
    if (ctx.admitted) {
      ++cell.sessions_admitted;
      if (first_admitted == nullptr) first_admitted = &ctx;
    }
  }

  auto fleet_bytes = [&] {
    int64_t sum = 0;
    for (const SessionCtx& ctx : sessions)
      if (ctx.admitted) sum += manager.learner(ctx.name).memory_bytes();
    return sum;
  };
  auto snapshot_all = [&] {
    for (SessionCtx& ctx : sessions) {
      if (!ctx.admitted) continue;
      ctx.tracker.record(
          eval::per_class_accuracy(manager.learner(ctx.name).model(),
                                   *ctx.test));
    }
  };
  cell.peak_pool_bytes = fleet_bytes();

  const int64_t eval_every =
      options.eval_every_segments > 0
          ? options.eval_every_segments
          : std::max<int64_t>(2, sc.total_segments / 3);
  int64_t next_eval = eval_every;

  data::Segment seg;
  int64_t arrival_step = 0;
  for (;;) {
    // Burst steps submit burst_size segments per session back-to-back with no
    // scheduler round in between — exactly the overload a depth-bounded
    // kShedOldest queue resolves by dropping its oldest entries.
    const bool busy =
        spec.burst_every > 0 &&
        arrival_step % spec.burst_every == spec.burst_every - 1;
    const int64_t n = busy ? spec.burst_size : 1;
    bool any = false;
    for (int64_t k = 0; k < n; ++k) {
      for (SessionCtx& ctx : sessions) {
        if (!ctx.admitted) continue;
        if (!ctx.head->next(seg)) continue;
        any = true;
        ctx.submitted_labels.push_back(seg.true_labels);
        manager.submit(ctx.name, std::move(seg.images));
        ++cell.segments_submitted;
      }
    }
    if (!any) break;
    manager.drain();
    cell.peak_pool_bytes = std::max(cell.peak_pool_bytes, fleet_bytes());
    ++arrival_step;
    if (first_admitted->base->segments_emitted() >= next_eval) {
      snapshot_all();
      next_eval += eval_every;
    }
  }
  snapshot_all();

  // ---- collect the row ------------------------------------------------------
  cell.segments_processed = manager.total_processed();
  float acc_sum = 0.0f, forget_sum = 0.0f;
  int64_t pseudo_correct = 0, pseudo_total = 0;
  for (SessionCtx& ctx : sessions) {
    if (!ctx.admitted) continue;
    const runtime::SessionStatus st = manager.status(ctx.name);
    cell.segments_shed += st.queue.shed;
    core::OnDeviceLearner& learner = manager.learner(ctx.name);
    cell.cache_stored_bytes += learner.cache_stored_bytes();
    cell.cache_logical_bytes += learner.cache_logical_bytes();
    acc_sum += eval::accuracy(learner.model(), *ctx.test);
    forget_sum += ctx.tracker.mean_forgetting();
  }
  if (cell.sessions_admitted > 0) {
    cell.accuracy = acc_sum / static_cast<float>(cell.sessions_admitted);
    cell.forgetting = forget_sum / static_cast<float>(cell.sessions_admitted);
  }

  // Pseudo-label accuracy needs report k to correspond to submission k; a
  // shed anywhere breaks that alignment, so the metric is only defined for
  // loss-free cells.
  if (cell.segments_shed == 0 &&
      cell.segments_processed == cell.segments_submitted) {
    for (SessionCtx& ctx : sessions) {
      if (!ctx.admitted) continue;
      const std::vector<core::SegmentReport> reports =
          manager.reports(ctx.name);
      for (size_t k = 0; k < reports.size(); ++k) {
        const std::vector<int64_t>& truth = ctx.submitted_labels[k];
        const std::vector<int64_t>& pseudo = reports[k].pseudo_labels;
        for (size_t j = 0; j < pseudo.size() && j < truth.size(); ++j) {
          if (pseudo[j] == truth[j]) ++pseudo_correct;
          ++pseudo_total;
        }
      }
    }
    cell.pseudo_label_accuracy =
        pseudo_total > 0 ? static_cast<double>(pseudo_correct) /
                               static_cast<double>(pseudo_total)
                         : 0.0;
  }

  if (options.capture_state) {
    for (SessionCtx& ctx : sessions) {
      if (!ctx.admitted) continue;
      core::OnDeviceLearner& learner = manager.learner(ctx.name);
      if (!learner.supports_state()) continue;
      const std::string path = spec.name + "." + method + "." + ctx.name +
                               ".state.tmp";
      learner.save_state(path);
      std::ifstream is(path, std::ios::binary);
      DECO_CHECK(is.is_open(), "scenario: cannot reopen " + path);
      cell.state_blobs.emplace_back(
          (std::istreambuf_iterator<char>(is)),
          std::istreambuf_iterator<char>());
      is.close();
      std::remove(path.c_str());
    }
  }

  cell.wall_seconds = now_seconds() - t_start;
  return cell;
}

MatrixReport run_matrix(const std::vector<ScenarioSpec>& scenarios,
                        const std::vector<std::string>& methods,
                        const HarnessOptions& options) {
  MatrixReport report;
  report.seed = options.seed;
  report.threads = core::num_threads();
  for (const ScenarioSpec& spec : scenarios)
    for (const std::string& method : methods)
      report.cells.push_back(run_cell(spec, method, options));
  return report;
}

}  // namespace deco::scenario
