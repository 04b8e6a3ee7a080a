// CI perf-smoke gate. Three checks, exit code is the verdict:
//
//   1. The packed GEMM must not be slower than the naive i-k-j kernel at
//      192² on this runner. The bar is deliberately generous (packed must
//      reach 80% of naive speed; on real hardware it is several times
//      faster) so a noisy single-core CI container cannot flake the gate
//      while a genuine blocking/packing regression still trips it. The gate
//      reads the matmul_192 row of the GEMM shape sweep below.
//
//   2. A 20-step learner run must perform ZERO hot-path heap allocations in
//      steady state: after warm-up every recurring tensor is served from the
//      buffer pool and every kernel scratch request from the thread's
//      workspace arena, so the calling thread's hot-alloc counters (see
//      core::memstats_this_thread — immune to allocations made by unrelated
//      threads in the process) hold flat over the final 8 segments. Warm-up
//      is 12 segments because bounded one-time events land late (e.g. a
//      class first crossing the majority-voting threshold changes a gather
//      shape and warms a fresh pool bucket). Single-threaded, with a fixed
//      input segment, so the allocation sequence is deterministic across
//      machines.
//
//   3. Telemetry instrumentation must stay cheap: the same 192² GEMM loop
//      timed with telemetry recording on vs off (interleaved min-of-N, so a
//      noisy neighbour cannot skew one side) must agree within 5%.
//
// The run writes two artifacts, which CI uploads:
//   * BENCH_kernels.json — the GEMM shape sweep: square 64/192/512 plus the
//     conv-shaped skinny GEMMs the paper-config ConvNet issues, packed vs
//     naive, ms and GFLOP/s, single-threaded so runs compare across PRs;
//   * BENCH_telemetry.json — the measured telemetry overhead plus the full
//     aggregate telemetry snapshot.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "deco/core/learner.h"
#include "deco/core/telemetry.h"
#include "deco/core/thread_pool.h"
#include "deco/core/workspace.h"
#include "deco/data/world.h"
#include "deco/nn/convnet.h"
#include "deco/tensor/ops.h"
#include "deco/tensor/rng.h"

namespace {

using namespace deco;

/// Milliseconds per call of `op`: one warm-up call, a single timed call to
/// size the batch to ~0.3 s, then the mean over that batch (at least 5
/// calls). The protocol the 192² gate was tuned against.
double time_ms(const std::function<void()>& op) {
  using clock = std::chrono::steady_clock;
  op();  // warm-up (and workspace/pool priming)
  auto t0 = clock::now();
  op();
  const double once = std::chrono::duration<double>(clock::now() - t0).count();
  const int iters = std::max(5, static_cast<int>(0.3 / std::max(once, 1e-6)));
  t0 = clock::now();
  for (int i = 0; i < iters; ++i) op();
  return std::chrono::duration<double>(clock::now() - t0).count() / iters * 1e3;
}

enum class GemmOp { NN, TN, NT };

struct SweepShape {
  std::string name;
  GemmOp op;
  int64_t m, n, k;
};

// The pre-blocking i-k-j kernel, kept as the measurement baseline.
void naive_gemm(GemmOp op, const Tensor& a, const Tensor& b, Tensor& out) {
  const int64_t m = out.dim(0), n = out.dim(1);
  const int64_t k = op == GemmOp::TN ? a.dim(0) : a.dim(1);
  out.zero();
  float* po = out.data();
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < m; ++i) {
    float* orow = po + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aik = op == GemmOp::TN ? pa[kk * m + i] : pa[i * k + kk];
      if (op == GemmOp::NT) {
        for (int64_t j = 0; j < n; ++j) orow[j] += aik * pb[j * k + kk];
      } else {
        const float* brow = pb + kk * n;
        for (int64_t j = 0; j < n; ++j) orow[j] += aik * brow[j];
      }
    }
  }
}

// Times every sweep shape packed vs naive, writes BENCH_kernels.json, and
// gates on the matmul_192 row.
bool check_gemm_sweep() {
  // The conv-shaped GEMMs the paper-config ConvNet (3×16×16 input, width 32)
  // issues at batch 32: the forward product per conv block and the two
  // backward products (dW and dcols) of the widest block.
  const int64_t width = 32, batch = 32;
  const Conv2dGeometry g1{3, 16, 16, 3, 3, 1, 1};
  const Conv2dGeometry g2{width, 8, 8, 3, 3, 1, 1};
  const int64_t cols1 = batch * g1.out_h() * g1.out_w();
  const int64_t cols2 = batch * g2.out_h() * g2.out_w();

  std::vector<SweepShape> shapes;
  for (int64_t s : {64, 192, 512})
    shapes.push_back({"matmul_" + std::to_string(s), GemmOp::NN, s, s, s});
  shapes.push_back({"conv1_fwd", GemmOp::NN, width, cols1, g1.col_rows()});
  shapes.push_back({"conv2_fwd", GemmOp::NN, width, cols2, g2.col_rows()});
  shapes.push_back({"conv2_dw", GemmOp::NT, width, g2.col_rows(), cols2});
  shapes.push_back({"conv2_dcols", GemmOp::TN, g2.col_rows(), cols2, width});

  std::ofstream js("BENCH_kernels.json");
  js << "{\n  \"threads\": 1,\n  \"shapes\": {\n";
  Rng rng(9);
  bool ok = true;
  for (size_t i = 0; i < shapes.size(); ++i) {
    const SweepShape& s = shapes[i];
    // Operand layouts per op: NN a[m,k] b[k,n]; TN a[k,m] b[k,n]; NT a[m,k]
    // b[n,k].
    Tensor a(s.op == GemmOp::TN ? std::vector<int64_t>{s.k, s.m}
                                : std::vector<int64_t>{s.m, s.k});
    Tensor b(s.op == GemmOp::NT ? std::vector<int64_t>{s.n, s.k}
                                : std::vector<int64_t>{s.k, s.n});
    rng.fill_normal(a, 0, 1);
    rng.fill_normal(b, 0, 1);
    Tensor out({s.m, s.n}), ref({s.m, s.n});

    const double packed_ms = time_ms([&] {
      switch (s.op) {
        case GemmOp::NN: matmul_into(a, b, out); break;
        case GemmOp::TN: matmul_tn_into(a, b, out); break;
        case GemmOp::NT: matmul_nt_into(a, b, out); break;
      }
    });
    const double naive_ms = time_ms([&] { naive_gemm(s.op, a, b, ref); });
    const double flop = 2.0 * static_cast<double>(s.m) *
                        static_cast<double>(s.n) * static_cast<double>(s.k);
    const double packed_gflops = flop / (packed_ms * 1e-3) * 1e-9;
    const double naive_gflops = flop / (naive_ms * 1e-3) * 1e-9;

    const char* opname = s.op == GemmOp::NN ? "nn"
                         : s.op == GemmOp::TN ? "tn"
                                              : "nt";
    js << "    \"" << s.name << "\": {\"op\": \"" << opname
       << "\", \"m\": " << s.m << ", \"n\": " << s.n << ", \"k\": " << s.k
       << ", \"packed_ms\": " << packed_ms
       << ", \"packed_gflops\": " << packed_gflops
       << ", \"naive_ms\": " << naive_ms
       << ", \"naive_gflops\": " << naive_gflops
       << ", \"speedup\": " << naive_ms / packed_ms << "}"
       << (i + 1 < shapes.size() ? ",\n" : "\n");
    std::cout << "[gemm_sweep] " << s.name << ": packed " << packed_ms
              << " ms (" << packed_gflops << " GFLOP/s), naive " << naive_ms
              << " ms (" << naive_gflops << " GFLOP/s), speedup "
              << naive_ms / packed_ms << "x\n";
    if (s.name == "matmul_192") {
      ok = packed_ms <= naive_ms / 0.8;
      std::cout << "[gemm_192] packed reaches " << 100.0 * naive_ms / packed_ms
                << "% of naive speed (bar 80%) -> " << (ok ? "OK" : "FAIL")
                << "\n";
      if (!ok)
        std::cout << "  packed GEMM is below 80% of naive throughput; the "
                     "blocking/packing path has regressed\n";
    }
  }
  js << "  }\n}\n";
  if (!js.good()) return false;
  std::cout << "artifact written to BENCH_kernels.json\n";
  return ok;
}

bool check_learner_steady_state_allocations() {
  data::DatasetSpec spec = data::icub1_spec();
  spec.num_classes = 4;
  data::ProceduralImageWorld world(spec, 7);
  data::Dataset labeled = world.make_labeled_set(3, 1);

  Rng rng(21);
  nn::ConvNetConfig mc;
  mc.in_channels = 3;
  mc.image_h = mc.image_w = 16;
  mc.num_classes = 4;
  mc.width = 8;
  mc.depth = 2;
  nn::ConvNet model(mc, rng);

  core::DecoConfig cfg;
  cfg.ipc = 2;
  cfg.beta = 2;  // warm-up covers both plain and model-update segments
  cfg.model_update_epochs = 2;
  cfg.condenser.iterations = 2;
  core::DecoLearner learner(model, cfg, 31);
  learner.init_buffer_from(labeled);

  // One fixed segment replayed every step: shapes (and therefore the
  // allocation sequence) are identical across steps, so after warm-up every
  // buffer request recurs.
  Tensor images({6, 3, 16, 16});
  for (int64_t i = 0; i < 6; ++i) {
    Tensor img = world.render(i % 4, 0, 0, 300 + i);
    std::copy(img.data(), img.data() + img.numel(),
              images.data() + i * img.numel());
  }

  // Per-thread counters: this gate runs single-threaded, so differencing the
  // calling thread's own counters measures exactly the learner's allocations
  // and cannot be poisoned by anything else the process does concurrently.
  core::MemStatsSnapshot base;
  for (int step = 0; step < 20; ++step) {
    learner.observe_segment(images);
    if (step == 11) base = core::memstats_this_thread();
  }
  const core::MemStatsSnapshot diff = core::memstats_this_thread() - base;

  const int64_t new_tensor_allocs = diff.tensor_heap_allocs;
  const int64_t new_ws_blocks = diff.workspace_blocks;
  const int64_t delta = diff.hot_allocs();
  const bool ok = delta == 0;
  std::cout << "[learner_alloc] steps 13-20: " << new_tensor_allocs
            << " tensor heap allocs, " << new_ws_blocks
            << " workspace blocks (pool hits " << diff.tensor_pool_hits
            << ") -> " << (ok ? "OK" : "FAIL") << "\n";
  const core::WorkspaceStats ws = core::Workspace::aggregate();
  std::cout << "[learner_alloc] workspace: " << ws.arenas << " arena(s), "
            << ws.bytes_reserved << " bytes reserved, high water "
            << ws.high_water_bytes << " bytes\n";
  if (!ok)
    std::cout << "  steady-state learner steps hit the heap; a hot-path "
                 "buffer stopped being reused\n";
  return ok;
}

// Measures the cost of leaving telemetry recording enabled around the hottest
// instrumented path. On/off runs are interleaved and each side keeps its
// minimum — the noise-robust statistic — so one preempted run cannot fail the
// gate. The true overhead is a handful of atomic adds per GEMM call, far
// below the 5% bar. Returns the measured overhead via `overhead_pct`.
bool check_telemetry_overhead(double& overhead_pct) {
  const int64_t n = 192;
  Rng rng(5);
  Tensor a({n, n}), b({n, n});
  rng.fill_normal(a, 0, 1);
  rng.fill_normal(b, 0, 1);
  Tensor out({n, n});

  using clock = std::chrono::steady_clock;
  auto loop = [&] {
    for (int i = 0; i < 8; ++i) matmul_into(a, b, out);
  };
  loop();  // warm caches, workspace arena, telemetry registrations

  double best_on = 1e300, best_off = 1e300;
  for (int rep = 0; rep < 24; ++rep) {
    const bool on = rep % 2 == 0;
    core::telemetry::set_enabled(on);
    const auto t0 = clock::now();
    loop();
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    (on ? best_on : best_off) = std::min(on ? best_on : best_off, s);
  }
  core::telemetry::set_enabled(true);

  overhead_pct = (best_on - best_off) / best_off * 100.0;
  const bool ok = overhead_pct <= 5.0;
  std::cout << "[telemetry_overhead] gemm_192 loop: on " << best_on * 1e3
            << " ms, off " << best_off * 1e3 << " ms (overhead "
            << overhead_pct << "%) -> " << (ok ? "OK" : "FAIL") << "\n";
  if (!ok)
    std::cout << "  telemetry instrumentation costs more than 5% on the GEMM "
                 "hot loop; a record path stopped being lock-free\n";
  return ok;
}

}  // namespace

int main() {
  // Single-threaded: one workspace arena, deterministic allocation order,
  // and the GEMM comparison measures the kernel rather than the scheduler.
  core::set_num_threads(1);
  // The overhead gate flips recording on/off itself; start from "on" so the
  // learner gate below also exercises the instrumented (production) path.
  core::telemetry::set_enabled(true);
  int failures = 0;
  double overhead_pct = 0.0;
  if (!check_gemm_sweep()) ++failures;
  if (!check_telemetry_overhead(overhead_pct)) ++failures;
  if (!check_learner_steady_state_allocations()) ++failures;

  std::ofstream js("BENCH_telemetry.json");
  js << "{\n  \"telemetry_overhead_pct\": " << overhead_pct
     << ",\n  \"aggregate\": "
     << core::telemetry::aggregate_json(core::telemetry::snapshot())
     << "\n}\n";
  if (js.good())
    std::cout << "artifact written to BENCH_telemetry.json\n";
  else
    ++failures;

  std::cout << (failures == 0 ? "perf-smoke: PASS" : "perf-smoke: FAIL")
            << "\n";
  return failures;
}
