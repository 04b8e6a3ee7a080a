// Memory-budget explorer: how much accuracy does each extra buffer slot buy?
//
// Edge deployments pick a buffer size from a RAM budget. This example sweeps
// IpC ∈ {1, 2, 5, 10} on the iCub1-style stream, reporting buffer bytes,
// final accuracy for DECO and the best selection baseline, and the marginal
// accuracy per additional kilobyte — the deployment-facing view of Table I's
// "DECO helps most when memory is scarcest" result.
//
// Build & run:  ./build/examples/memory_budget
#include <cstdio>

#include "deco/eval/metrics.h"
#include "deco/eval/runner.h"

using namespace deco;

int main() {
  const data::DatasetSpec spec = data::icub1_spec();

  eval::RunConfig base;
  base.spec = spec;
  base.stream.stc = 32;
  base.stream.segment_size = 32;
  base.stream.total_segments = 8;
  base.deco.beta = 4;
  base.deco.model_update_epochs = 8;
  base.pretrain_per_class = 6;
  base.pretrain_epochs = 20;
  base.test_per_class = 25;
  base.seed = 9;

  const int64_t bytes_per_image = 3 * 16 * 16 * 4;  // float RGB 16×16
  std::printf("%5s  %10s  %9s  %9s  %s\n", "IpC", "buffer", "DECO",
              "Selective-BP", "note");

  float prev_deco = -1.0f;
  int64_t prev_bytes = 0;
  for (int64_t ipc : {1, 2, 5, 10}) {
    eval::RunConfig deco_cfg = base;
    deco_cfg.method = "deco";
    deco_cfg.deco.ipc = ipc;
    const float deco_acc = eval::run_experiment(deco_cfg).final_accuracy;

    eval::RunConfig bl_cfg = base;
    bl_cfg.method = "selective_bp";
    bl_cfg.deco.ipc = ipc;
    const float bl_acc = eval::run_experiment(bl_cfg).final_accuracy;

    const int64_t bytes = ipc * spec.num_classes * bytes_per_image;
    char note[96] = "";
    if (prev_deco >= 0.0f) {
      const double per_kb = (deco_acc - prev_deco) /
                            (static_cast<double>(bytes - prev_bytes) / 1024.0);
      std::snprintf(note, sizeof(note), "+%.2f%% per extra KiB", per_kb);
    }
    std::printf("%5lld  %7.1f KiB  %8.1f%%  %8.1f%%  %s\n",
                static_cast<long long>(ipc),
                static_cast<double>(bytes) / 1024.0, deco_acc, bl_acc, note);
    prev_deco = deco_acc;
    prev_bytes = bytes;
  }
  return 0;
}
