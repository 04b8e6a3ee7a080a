// Ablation A2 (DESIGN.md): contribution of DECO's two robustness components —
// majority-voting pseudo-label filtering (Section III-B) and the
// feature-discrimination objective (Section III-D) — on the CORe50 stream.
//
// Expected shape: both components help; voting matters most when the
// pretrained model is weak (noisy labels), feature discrimination matters
// most at larger IpC (it needs ≥2 samples per class to form positive pairs).
#include <iostream>

#include "bench_util.h"
#include "deco/eval/metrics.h"

using namespace deco;

int main() {
  bench::print_scale_banner("Ablation A2 — majority voting & feature discrimination");
  const bench::BenchScale s = bench::scale();

  eval::RunConfig base = bench::base_config(data::core50_spec(), s);
  base.method = "deco";
  base.deco.ipc = 5;

  eval::MarkdownTable table({"majority voting", "feature discrimination",
                             "final acc", "pseudo-label acc %",
                             "data retained %"});
  for (bool voting : {true, false}) {
    for (bool disc : {true, false}) {
      eval::RunConfig cfg = base;
      cfg.deco.use_majority_voting = voting;
      cfg.deco.condenser.feature_discrimination = disc;
      const auto results = eval::run_seeds(cfg, s.seeds);
      double acc = 0.0, plabel = 0.0, keep = 0.0;
      for (const auto& r : results) {
        acc += r.final_accuracy;
        plabel += r.pseudo_label_accuracy;
        keep += r.retention_rate;
      }
      const double n = static_cast<double>(results.size());
      table.add_row({voting ? "on" : "off", disc ? "on" : "off",
                     eval::fmt(acc / n, 2), eval::fmt(100.0 * plabel / n, 1),
                     eval::fmt(100.0 * keep / n, 1)});
      std::cout.flush();
    }
  }
  table.print(std::cout);
  std::cout << "\nFull DECO (both on) should lead; voting-off degrades label "
               "quality, discrimination-off blurs confusable classes.\n";
  return 0;
}
