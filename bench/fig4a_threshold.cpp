// Regenerates Fig. 4a of the paper: the effect of the majority-voting filter
// threshold m on (i) the fraction of stream data retained, (ii) the accuracy
// of the retained pseudo-labels, and (iii) the final model accuracy.
//
// Paper reference shape: retention falls monotonically with m; pseudo-label
// accuracy rises with m (quality/quantity trade-off); model accuracy peaks at
// an intermediate threshold (paper: m = 0.4 — "label accuracy matters more
// than data volume").
#include <iostream>

#include "bench_util.h"
#include "deco/eval/metrics.h"

using namespace deco;

int main() {
  bench::print_scale_banner("Fig. 4a — majority-voting threshold sweep");
  const bench::BenchScale s = bench::scale();

  eval::RunConfig base = bench::base_config(data::core50_spec(), s);
  base.method = "deco";
  base.ipc = 5;

  eval::MarkdownTable table({"m", "data retained %", "pseudo-label acc %",
                             "final model acc %"});
  for (float m : {0.0f, 0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f, 0.7f}) {
    eval::RunConfig cfg = base;
    cfg.deco.threshold_m = m;
    const auto results = eval::run_seeds(cfg, s.seeds);
    double retained = 0.0, final_acc = 0.0;
    for (const auto& r : results) {
      retained += r.retention_rate;
      final_acc += r.final_accuracy;
    }
    const double n = static_cast<double>(results.size());

    // Pseudo-label accuracy of the *retained* samples: re-measure with a
    // dedicated pass (RunResult reports all-sample pseudo accuracy; the
    // voting filter's value is the quality of what survives it). We estimate
    // it by running the stream through the pretrained model only.
    const data::ProceduralImageWorld world = eval::make_world(cfg);
    runtime::LearnerHandle session =
        runtime::build_session(eval::session_recipe(cfg), world);
    nn::ConvNet& model = session.learner->model();
    data::TemporalStream stream(world, cfg.stream, cfg.seed + 4);
    data::Segment seg;
    int64_t kept_correct = 0, kept_total = 0;
    while (stream.next(seg)) {
      auto pl = core::pseudo_label_segment(model, seg.images, m);
      for (int64_t i : pl.retained) {
        if (pl.labels[static_cast<size_t>(i)] ==
            seg.true_labels[static_cast<size_t>(i)])
          ++kept_correct;
        ++kept_total;
      }
    }
    const double kept_acc =
        kept_total > 0 ? 100.0 * static_cast<double>(kept_correct) /
                             static_cast<double>(kept_total)
                       : 0.0;

    table.add_row({eval::fmt(m, 1), eval::fmt(100.0 * retained / n, 1),
                   eval::fmt(kept_acc, 1), eval::fmt(final_acc / n, 2)});
    std::cout.flush();
  }
  table.print(std::cout);
  std::cout << "\nPaper shape check: retention falls with m, pseudo-label "
               "accuracy rises, model accuracy peaks at intermediate m.\n";
  return 0;
}
