// Ablation A1 (DESIGN.md): the design choices behind DECO's efficient
// condensation (Section III-C).
//
//  (1) One-step matching with L fresh random models (DECO) vs the same L
//      matching steps on ONE fixed random model — the paper's empirical
//      finding that model diversity beats trajectory depth.
//  (2) One-step DECO vs the bilevel DC loop at increasing inner depth —
//      the accuracy/time trade-off that motivates dropping the inner loop.
#include <iostream>

#include "bench_util.h"
#include "deco/eval/metrics.h"

using namespace deco;

int main() {
  bench::print_scale_banner("Ablation A1 — one-step matching design");
  const bench::BenchScale s = bench::scale();

  eval::RunConfig base = bench::base_config(data::core50_spec(), s);
  base.deco.ipc = 10;

  // (1) fresh-model-per-step vs fixed model.
  {
    eval::MarkdownTable table({"variant", "final acc", "condense time (s)"});
    for (bool fresh : {true, false}) {
      eval::RunConfig cfg = base;
      cfg.method = "deco";
      cfg.deco.condenser.rerandomize_each_iteration = fresh;
      const auto results = eval::run_seeds(cfg, s.seeds);
      double acc = 0.0, t = 0.0;
      for (const auto& r : results) {
        acc += r.final_accuracy;
        t += r.condense_seconds;
      }
      const double n = static_cast<double>(results.size());
      table.add_row({fresh ? "L fresh random models (DECO)"
                           : "1 fixed model, L steps",
                     eval::fmt(acc / n, 2), eval::fmt(t / n, 1)});
      std::cout.flush();
    }
    std::cout << "### model randomization\n";
    table.print(std::cout);
    std::cout << "\n";
  }

  // (2) bilevel depth sweep vs one-step.
  {
    std::cout << "### bilevel inner-loop depth (DC) vs one-step (DECO)\n";
    eval::MarkdownTable table({"method", "final acc", "condense time (s)"});
    {
      eval::RunConfig cfg = base;
      cfg.method = "deco";
      const auto r = eval::run_experiment(cfg);
      table.add_row({"DECO (one-step, L=10)", eval::fmt(r.final_accuracy, 2),
                     eval::fmt(r.condense_seconds, 1)});
    }
    for (int64_t inner : {2, 5, 10}) {
      eval::RunConfig cfg = base;
      cfg.method = "dc";
      cfg.bilevel.inner_epochs = inner;
      const auto r = eval::run_experiment(cfg);
      table.add_row({"DC (bilevel, 2 outer x " + std::to_string(inner) +
                         " inner)",
                     eval::fmt(r.final_accuracy, 2),
                     eval::fmt(r.condense_seconds, 1)});
      std::cout.flush();
    }
    table.print(std::cout);
    std::cout << "\nPaper shape check: fresh-model one-step matches or beats "
                 "fixed-model multi-step at equal cost, and approaches DC "
                 "accuracy at ~10× less time.\n";
  }
  return 0;
}
