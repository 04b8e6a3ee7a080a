// Regenerates Table II of the paper: execution time (condensation seconds)
// and final accuracy of the condensation methods DC, DSA, DM and DECO on the
// CORe50 stream at IpC ∈ {1, 5, 10, 50}.
//
// Paper reference shape: DECO ≈ 10× faster than DC and DSA; DM is marginally
// faster than DECO but clearly less accurate; DECO's accuracy matches or
// beats DC/DSA. Absolute seconds differ (CPU simulator vs the authors' GPU),
// the ratios are the reproduction target.
#include <iostream>

#include "bench_util.h"
#include "deco/core/telemetry.h"
#include "deco/eval/metrics.h"

using namespace deco;

int main() {
  bench::print_scale_banner("Table II — condensation execution time");
  const bench::BenchScale s = bench::scale();

  eval::RunConfig base = bench::base_config(data::core50_spec(), s);
  const std::vector<std::string> methods{"dc", "dsa", "dm", "deco"};
  const std::vector<int64_t> ipcs{1, 5, 10, 50};

  eval::MarkdownTable table(
      {"Method", "IpC=1 Time", "IpC=1 Acc", "IpC=5 Time", "IpC=5 Acc",
       "IpC=10 Time", "IpC=10 Acc", "IpC=50 Time", "IpC=50 Acc"});

  for (const auto& method : methods) {
    std::vector<std::string> row{method == "deco" ? "DECO" : method};
    for (int64_t ipc : ipcs) {
      eval::RunConfig cfg = base;
      cfg.method = method;
      cfg.deco.ipc = ipc;
      const auto results = eval::run_seeds(cfg, std::max<int64_t>(1, s.seeds - 1));
      double time_sum = 0.0;
      std::vector<float> accs;
      for (const auto& r : results) {
        time_sum += r.condense_seconds;
        accs.push_back(r.final_accuracy);
      }
      row.push_back(eval::fmt(time_sum / static_cast<double>(results.size()), 1));
      row.push_back(eval::fmt(eval::aggregate(accs).mean, 1));
      std::cout.flush();
    }
    table.add_row(row);
  }
  table.print(std::cout);

  std::cout << "\nPaper shape check: Time(DC) ≈ Time(DSA) ≫ Time(DECO) ≳ "
               "Time(DM); Acc(DECO) ≈ Acc(DC) > Acc(DM).\n";

  // Where did the condensation seconds go? The aggregate telemetry snapshot
  // (per-phase span times, GEMM flops, pool utilization) answers that for
  // the whole run just timed.
  core::telemetry::write_aggregate_json("BENCH_table2_telemetry.json");
  std::cout << "Telemetry aggregate written to BENCH_table2_telemetry.json\n";
  return 0;
}
