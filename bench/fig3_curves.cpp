// Regenerates Fig. 3 of the paper: learning curves (test accuracy vs number
// of processed stream inputs) on CORe50 and ImageNet-10 at IpC = 10, for DECO
// against the two most competitive baselines, FIFO and Selective-BP.
//
// Paper reference shape: DECO's curve dominates both baselines throughout,
// reaches the baselines' final accuracy with ~¼ of the data, ends >6–8%
// higher, and is smoother (less sawtooth from buffer churn).
#include <iostream>

#include "bench_util.h"
#include "deco/eval/metrics.h"

using namespace deco;

int main() {
  bench::print_scale_banner("Fig. 3 — learning curves (IpC=10)");
  const bench::BenchScale s = bench::scale();

  const std::vector<data::DatasetSpec> specs{data::core50_spec(),
                                             data::imagenet10_spec()};
  const std::vector<std::string> methods{"fifo", "selective_bp", "deco"};

  for (const auto& spec : specs) {
    std::cout << "## " << spec.name << " (CSV: samples_seen, "
              << "fifo, selective_bp, deco)\n";

    eval::RunConfig base = bench::base_config(spec, s);
    base.deco.ipc = 10;
    base.eval_every_segments = 2;
    // β=2 so the curve reflects continuous learning between eval points.
    base.deco.beta = 2;

    std::vector<std::vector<eval::CurvePoint>> curves;
    std::vector<float> final_acc;
    for (const auto& method : methods) {
      eval::RunConfig cfg = base;
      cfg.method = method;
      auto res = eval::run_experiment(cfg);
      curves.push_back(res.curve);
      final_acc.push_back(res.final_accuracy);
      std::cout.flush();
    }

    const size_t points = curves[0].size();
    for (size_t p = 0; p < points; ++p) {
      std::cout << curves[0][p].samples_seen;
      for (const auto& curve : curves)
        std::cout << ", " << eval::fmt(curve[p].accuracy, 2);
      std::cout << "\n";
    }
    std::cout << "final: fifo=" << eval::fmt(final_acc[0], 2)
              << " selective_bp=" << eval::fmt(final_acc[1], 2)
              << " deco=" << eval::fmt(final_acc[2], 2) << "\n";

    // Data-efficiency readout: first sample count at which DECO's curve
    // reaches the better baseline's final accuracy.
    const float target = std::max(final_acc[0], final_acc[1]);
    int64_t reached_at = -1;
    for (const auto& pt : curves[2]) {
      if (pt.accuracy >= target) {
        reached_at = pt.samples_seen;
        break;
      }
    }
    const int64_t total = curves[2].empty() ? 0 : curves[2].back().samples_seen;
    if (reached_at > 0 && total > 0) {
      std::cout << "DECO reaches best-baseline final accuracy ("
                << eval::fmt(target, 1) << ") after " << reached_at << "/"
                << total << " samples ("
                << eval::fmt(100.0 * static_cast<double>(reached_at) /
                                 static_cast<double>(total), 0)
                << "% of the stream; paper: ~25%).\n";
    } else {
      std::cout << "DECO did not cross the best-baseline final accuracy "
                   "within this stream.\n";
    }
    std::cout << "\n";
  }
  return 0;
}
