// Extension analysis: catastrophic forgetting, measured directly.
//
// The paper's whole premise is that condensation mitigates forgetting better
// than selection under tight memory. Table I shows the end-state accuracy;
// this bench measures the forgetting itself: per-class accuracy is snapshot
// after every model update, and forgetting is the standard max-drop-from-peak
// (see eval::ForgettingTracker). Expected shape: DECO's mean forgetting is
// below the selection baselines' at equal IpC, because its buffer never
// evicts — old classes' information is not displaced by new runs.
#include <iostream>

#include "bench_util.h"
#include "deco/eval/metrics.h"
#include "deco/eval/stats.h"

using namespace deco;

namespace {

struct Outcome {
  float final_acc = 0.0f;
  float forgetting = 0.0f;
};

Outcome run_with_tracking(const std::string& method, int64_t ipc,
                          const bench::BenchScale& s, uint64_t seed) {
  eval::RunConfig cfg = bench::base_config(data::core50_spec(), s);
  cfg.method = method;
  cfg.ipc = ipc;
  cfg.seed = seed;

  const data::ProceduralImageWorld world = eval::make_world(cfg);
  data::Dataset test = world.make_test_set(cfg.test_per_class, cfg.seed + 2);
  runtime::LearnerHandle session =
      runtime::build_session(eval::session_recipe(cfg), world);
  core::OnDeviceLearner& learner = *session.learner;
  nn::ConvNet& model = learner.model();

  eval::ForgettingTracker tracker;
  tracker.record(eval::per_class_accuracy(model, test));
  data::TemporalStream stream(world, cfg.stream, cfg.seed + 4);
  data::Segment seg;
  while (stream.next(seg)) {
    learner.observe_segment(seg.images);
    if (stream.segments_emitted() % cfg.deco.beta == 0)
      tracker.record(eval::per_class_accuracy(model, test));
  }
  return {eval::accuracy(model, test), tracker.mean_forgetting()};
}

}  // namespace

int main() {
  bench::print_scale_banner("Extension — catastrophic forgetting (CORe50)");
  const bench::BenchScale s = bench::scale();

  eval::MarkdownTable table({"method", "IpC", "final acc", "mean forgetting"});
  for (int64_t ipc : {1, 10}) {
    for (const std::string method : {"fifo", "selective_bp", "deco"}) {
      eval::RunningStats acc, forg;
      for (int64_t k = 0; k < s.seeds; ++k) {
        const Outcome o = run_with_tracking(method, ipc, s, 1 + k);
        acc.add(o.final_acc);
        forg.add(o.forgetting);
      }
      table.add_row({method, std::to_string(ipc), eval::fmt(acc.mean(), 2),
                     eval::fmt(forg.mean(), 2)});
      std::cout.flush();
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: DECO forgets least at equal IpC (its buffer "
               "absorbs new classes without evicting old ones).\n";
  return 0;
}
