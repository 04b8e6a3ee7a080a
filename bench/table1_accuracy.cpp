// Regenerates Table I of the paper: final average accuracy of DECO vs the
// five replay-selection baselines on all four datasets at IpC ∈ {1, 5, 10, 50},
// plus the relative improvement over the best baseline and the
// unlimited-buffer upper bound.
//
// Paper reference values (CORe50, IpC=1): best baseline 19.05, DECO 29.84
// (+56.7%); upper bound 88.71. The reproduction criterion is the *shape*:
// DECO beats every baseline at every IpC, with the largest relative gains at
// small IpC, and DECO's variance is smaller than the baselines'.
#include <iostream>

#include "bench_util.h"
#include "deco/eval/metrics.h"

using namespace deco;

int main() {
  bench::print_scale_banner("Table I — final average accuracy");
  const bench::BenchScale s = bench::scale();

  const std::vector<data::DatasetSpec> specs{
      data::icub1_spec(), data::core50_spec(), data::cifar100_spec(),
      data::imagenet10_spec()};
  const std::vector<int64_t> ipcs{1, 5, 10, 50};
  const std::vector<std::string> baselines{"random", "fifo", "selective_bp",
                                           "kcenter", "gss"};

  for (const auto& spec : specs) {
    eval::RunConfig base = bench::base_config(spec, s);

    // Upper bound: unlimited buffer, once per dataset.
    eval::RunConfig ub = base;
    ub.method = "upper_bound";
    ub.deco.ipc = 1;  // ignored by the unlimited learner
    const auto ub_res = eval::run_seeds(ub, s.seeds);
    const auto ub_agg = eval::aggregate(bench::finals(ub_res));

    eval::MarkdownTable table({"IpC", "Random", "FIFO", "Selective-BP",
                               "K-Center", "GSS-Greedy", "DECO (Ours)",
                               "Improvement", "Upper Bound"});
    std::cout << "## " << spec.name << "\n";

    for (int64_t ipc : ipcs) {
      std::vector<std::string> row{std::to_string(ipc)};
      float best_baseline = 0.0f;
      for (const auto& method : baselines) {
        eval::RunConfig cfg = base;
        cfg.method = method;
        cfg.deco.ipc = ipc;
        const auto agg = eval::aggregate(
            bench::finals(eval::run_seeds(cfg, s.seeds)));
        best_baseline = std::max(best_baseline, agg.mean);
        row.push_back(eval::format_aggregate(agg));
      }
      eval::RunConfig cfg = base;
      cfg.method = "deco";
      cfg.deco.ipc = ipc;
      const auto deco_agg =
          eval::aggregate(bench::finals(eval::run_seeds(cfg, s.seeds)));
      row.push_back(eval::format_aggregate(deco_agg));
      const double improvement =
          best_baseline > 0.0f
              ? 100.0 * (deco_agg.mean - best_baseline) / best_baseline
              : 0.0;
      row.push_back((improvement >= 0 ? "+" : "") + eval::fmt(improvement, 1) +
                    "%");
      row.push_back(eval::fmt(ub_agg.mean, 2));
      table.add_row(row);
      std::cout.flush();
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  return 0;
}
