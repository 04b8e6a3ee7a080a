// Ablation A3: the learnable-soft-label extension (DESIGN.md). The paper
// notes its method "can be flexibly adapted to other dataset condensation
// techniques"; learnable soft labels are the canonical such extension —
// synthetic samples carry learned class distributions, co-optimized with the
// pixels by the same one-step finite-difference rule at no extra passes.
//
// Expected shape: soft labels help most at small IpC (each image can encode
// inter-class structure its pixels alone cannot), at identical condensation
// cost.
#include <iostream>

#include "bench_util.h"
#include "deco/eval/metrics.h"

using namespace deco;

int main() {
  bench::print_scale_banner("Ablation A3 — learnable soft labels");
  const bench::BenchScale s = bench::scale();

  eval::RunConfig base = bench::base_config(data::core50_spec(), s);
  base.method = "deco";

  eval::MarkdownTable table(
      {"IpC", "hard labels", "soft labels", "condense time hard/soft (s)"});
  for (int64_t ipc : {1, 5, 10}) {
    double acc_hard = 0.0, acc_soft = 0.0, t_hard = 0.0, t_soft = 0.0;
    for (bool soft : {false, true}) {
      eval::RunConfig cfg = base;
      cfg.deco.ipc = ipc;
      cfg.deco.condenser.learn_soft_labels = soft;
      const auto results = eval::run_seeds(cfg, s.seeds);
      for (const auto& r : results) {
        (soft ? acc_soft : acc_hard) += r.final_accuracy;
        (soft ? t_soft : t_hard) += r.condense_seconds;
      }
    }
    const double n = static_cast<double>(s.seeds);
    table.add_row({std::to_string(ipc), eval::fmt(acc_hard / n, 2),
                   eval::fmt(acc_soft / n, 2),
                   eval::fmt(t_hard / n, 1) + " / " + eval::fmt(t_soft / n, 1)});
    std::cout.flush();
  }
  table.print(std::cout);
  return 0;
}
