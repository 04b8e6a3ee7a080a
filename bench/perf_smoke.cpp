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
//   * BENCH_kernels.json — the GEMM shape sweep: square 64/192/512 matmuls
//     plus the conv kernels Conv2d runs in the paper-config ConvNet
//     (conv_forward_into, conv_weight_grad_acc_into, conv_input_grad_into),
//     each against the naive loop over the same product's materialized
//     operands, ms and GFLOP/s; then NormReluPool's forward and backward at
//     the ConvNet's 16×16 and 8×8 planes against the unfused InstanceNorm2d
//     → ReLU → AvgPool2d(2) layers, ms only (no gate). Single-threaded, so
//     runs compare across PRs;
//   * BENCH_telemetry.json — the measured telemetry overhead, the memory one
//     steady-state learner step holds (workspace high water and tensor-pool
//     bytes; informational, for diffing across changes) plus the full
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
#include "deco/nn/layers.h"
#include "deco/tensor/buffer_pool.h"
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

// The pre-blocking i-k-j kernel, kept as the measurement baseline: out
// [m, n] = A·B over materialized operands, with A [m, k] (NN, NT) or [k, m]
// (TN) and B [k, n] (NN, TN) or [n, k] (NT).
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

// One sweep row: the shipped kernel (`packed`) against the naive loop over
// the same product's materialized operands, both m×n×k.
struct SweepRow {
  std::string name;
  std::string op;
  int64_t m, n, k;
  std::function<void()> packed;
  std::function<void()> naive;
};

// The operands of one conv layer of the paper-config ConvNet at batch 32,
// plus the materialized matrices its naive baselines read.
struct ConvLayer {
  Conv2dGeometry g;
  Tensor weight, bias, padded, dy;  // what the conv kernels read
  Tensor cols, dy_mat;              // im2col(x) and dy as [out_ch, N·oh·ow]
  Tensor out, dw, dx;               // the conv kernels' outputs
  Tensor ref_fwd, ref_dw, ref_dx;   // the naive products' outputs

  ConvLayer(const Conv2dGeometry& geom, int64_t batch, int64_t width, Rng& rng)
      : g(geom) {
    Tensor x({batch, g.in_channels, g.in_h, g.in_w});
    weight = Tensor({width, g.col_rows()});
    bias = Tensor({width});
    dy = Tensor({batch, width, g.out_h(), g.out_w()});
    for (Tensor* t : {&x, &weight, &bias, &dy}) rng.fill_normal(*t, 0, 1);
    pad_into(x, g, padded);
    im2col_into(x, g, cols);
    const int64_t per_sample = g.out_h() * g.out_w();
    dy_mat = Tensor({width, batch * per_sample});
    for (int64_t n = 0; n < batch; ++n)
      for (int64_t o = 0; o < width; ++o)
        for (int64_t i = 0; i < per_sample; ++i)
          dy_mat.at2(o, n * per_sample + i) = dy[(n * width + o) * per_sample + i];
    dw = Tensor({width, g.col_rows()});
    ref_fwd = Tensor({width, dy_mat.dim(1)});
    ref_dw = Tensor({width, g.col_rows()});
    ref_dx = Tensor({g.col_rows(), dy_mat.dim(1)});
  }
  int64_t pixels() const { return dy_mat.dim(1); }
};

// One NormReluPool row: the fused block (`fused`) against the three layers
// it replaces (`unfused`), on the same [n, c, h, w] input.
struct BlockRow {
  std::string name;
  std::string op;
  std::vector<int64_t> shape;
  std::function<void()> fused;
  std::function<void()> unfused;
};

// A NormReluPool and the unfused InstanceNorm2d → ReLU → AvgPool2d(2) stack
// at one shape, both run forward once so either backward can be timed alone.
struct BlockLayers {
  Tensor x, dy;
  nn::NormReluPool block;
  nn::InstanceNorm2d norm;
  nn::ReLU relu;
  nn::AvgPool2d pool{2};

  BlockLayers(const std::vector<int64_t>& shape, Rng& rng)
      : x(shape),
        dy({shape[0], shape[1], shape[2] / 2, shape[3] / 2}),
        block(shape[1]),
        norm(shape[1]) {
    rng.fill_normal(x, 0, 1);
    rng.fill_normal(dy, 0, 1);
    forward_fused();
    forward_unfused();
  }
  void forward_fused() { block.forward(x); }
  void forward_unfused() { pool.forward(relu.forward(norm.forward(x))); }
  void backward_fused() { block.backward(dy); }
  void backward_unfused() { norm.backward(relu.backward(pool.backward(dy))); }
};

// Times every sweep row packed vs naive, writes BENCH_kernels.json, and
// gates on the matmul_192 row.
bool check_gemm_sweep() {
  Rng rng(9);
  std::vector<SweepRow> rows;
  // Square products through matmul_into; the operands outlive the rows.
  std::vector<Tensor> square;
  square.reserve(9);
  for (int64_t s : {64, 192, 512}) {
    Tensor& a = square.emplace_back(std::vector<int64_t>{s, s});
    Tensor& b = square.emplace_back(std::vector<int64_t>{s, s});
    Tensor& out = square.emplace_back(std::vector<int64_t>{s, s});
    rng.fill_normal(a, 0, 1);
    rng.fill_normal(b, 0, 1);
    rows.push_back({"matmul_" + std::to_string(s), "nn", s, s, s,
                    [&] { matmul_into(a, b, out); },
                    [&] { naive_gemm(GemmOp::NN, a, b, out); }});
  }
  // The conv products the paper-config ConvNet (3×16×16 input, width 32)
  // runs at batch 32, through the kernels Conv2d calls: the forward of the
  // first two blocks and the dW and dX of the second. The forward and dW
  // read the padded input in place; dX includes its col2im drain, which
  // the naive row (the column-gradient product alone) leaves out.
  const int64_t width = 32, batch = 32;
  ConvLayer l1({3, 16, 16, 3, 3, 1, 1}, batch, width, rng);
  ConvLayer l2({width, 8, 8, 3, 3, 1, 1}, batch, width, rng);
  for (ConvLayer* l : {&l1, &l2}) {
    const std::string name = l == &l1 ? "conv1_fwd" : "conv2_fwd";
    rows.push_back({name, "conv_fwd", width, l->pixels(), l->g.col_rows(),
                    [l] { conv_forward_into(l->weight, l->bias, l->padded,
                                            l->g, l->out); },
                    [l] { naive_gemm(GemmOp::NN, l->weight, l->cols, l->ref_fwd); }});
  }
  ConvLayer* l = &l2;
  rows.push_back({"conv2_dw", "conv_dw", width, l->g.col_rows(), l->pixels(),
                  [l] { conv_weight_grad_acc_into(l->dy, l->padded, l->g,
                                                  l->dw); },
                  [l] { naive_gemm(GemmOp::NT, l->dy_mat, l->cols, l->ref_dw); }});
  rows.push_back({"conv2_dx", "conv_dx", l->g.col_rows(), l->pixels(), width,
                  [l] { conv_input_grad_into(l->weight, l->dy, l->g, l->dx); },
                  [l] { naive_gemm(GemmOp::TN, l->weight, l->dy_mat, l->ref_dx); }});
  // NormReluPool on the first two blocks' conv outputs at the same batch.
  std::vector<BlockRow> blocks;
  BlockLayers b1({batch, width, 16, 16}, rng);
  BlockLayers b2({batch, width, 8, 8}, rng);
  for (BlockLayers* b : {&b1, &b2}) {
    const std::string plane =
        std::to_string(b->x.dim(2)) + "x" + std::to_string(b->x.dim(3));
    blocks.push_back({"norm_relu_pool_fwd_" + plane, "norm_relu_pool_fwd",
                      b->x.shape(), [b] { b->forward_fused(); },
                      [b] { b->forward_unfused(); }});
    blocks.push_back({"norm_relu_pool_bwd_" + plane, "norm_relu_pool_bwd",
                      b->x.shape(), [b] { b->backward_fused(); },
                      [b] { b->backward_unfused(); }});
  }

  std::ofstream js("BENCH_kernels.json");
  js << "{\n  \"threads\": 1,\n  \"shapes\": {\n";
  bool ok = true;
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& s = rows[i];
    const double packed_ms = time_ms(s.packed);
    const double naive_ms = time_ms(s.naive);
    const double flop = 2.0 * static_cast<double>(s.m) *
                        static_cast<double>(s.n) * static_cast<double>(s.k);
    const double packed_gflops = flop / (packed_ms * 1e-3) * 1e-9;
    const double naive_gflops = flop / (naive_ms * 1e-3) * 1e-9;

    js << "    \"" << s.name << "\": {\"op\": \"" << s.op
       << "\", \"m\": " << s.m << ", \"n\": " << s.n << ", \"k\": " << s.k
       << ", \"packed_ms\": " << packed_ms
       << ", \"packed_gflops\": " << packed_gflops
       << ", \"naive_ms\": " << naive_ms
       << ", \"naive_gflops\": " << naive_gflops
       << ", \"speedup\": " << naive_ms / packed_ms << "},\n";
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
  for (size_t i = 0; i < blocks.size(); ++i) {
    const BlockRow& r = blocks[i];
    const double fused_ms = time_ms(r.fused);
    const double unfused_ms = time_ms(r.unfused);
    js << "    \"" << r.name << "\": {\"op\": \"" << r.op << "\", \"shape\": ["
       << r.shape[0] << ", " << r.shape[1] << ", " << r.shape[2] << ", "
       << r.shape[3] << "], \"fused_ms\": " << fused_ms
       << ", \"unfused_ms\": " << unfused_ms
       << ", \"speedup\": " << unfused_ms / fused_ms << "}"
       << (i + 1 < blocks.size() ? ",\n" : "\n");
    std::cout << "[block_sweep] " << r.name << ": fused " << fused_ms
              << " ms, unfused " << unfused_ms << " ms, speedup "
              << unfused_ms / fused_ms << "x\n";
  }
  js << "  }\n}\n";
  if (!js.good()) return false;
  std::cout << "artifact written to BENCH_kernels.json\n";
  return ok;
}

// What one steady-state learner step holds, read on the gate's thread.
struct StepMemory {
  int64_t workspace_high_water_bytes = 0;  // peak arena bytes in one step
  int64_t workspace_reserved_bytes = 0;    // arena capacity
  int64_t tensor_heap_bytes = 0;    // bytes the tensor pool took from the heap
  int64_t tensor_pool_cached_bytes = 0;  // of those, idle in the pool
};

bool check_learner_steady_state_allocations(StepMemory& mem) {
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
    if (step == 11) {
      base = core::memstats_this_thread();
      core::Workspace::tls().reset_high_water();
    }
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
  mem.workspace_high_water_bytes = ws.high_water_bytes;
  mem.workspace_reserved_bytes = ws.bytes_reserved;
  mem.tensor_heap_bytes = core::memstats_this_thread().tensor_heap_bytes;
  mem.tensor_pool_cached_bytes = detail::tensor_pool_cached_bytes();
  std::cout << "[learner_alloc] workspace: " << ws.arenas << " arena(s), "
            << ws.bytes_reserved << " bytes reserved, steady-state high water "
            << ws.high_water_bytes << " bytes; tensor pool: "
            << mem.tensor_heap_bytes << " bytes from the heap, "
            << mem.tensor_pool_cached_bytes << " idle\n";
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
  StepMemory mem;
  // The learner runs first, so its tensor-pool bytes are its own and not
  // buffers left over from the GEMM sweep.
  if (!check_learner_steady_state_allocations(mem)) ++failures;
  if (!check_gemm_sweep()) ++failures;
  if (!check_telemetry_overhead(overhead_pct)) ++failures;

  std::ofstream js("BENCH_telemetry.json");
  js << "{\n  \"telemetry_overhead_pct\": " << overhead_pct
     << ",\n  \"learner_step_memory\": {\"workspace_high_water_bytes\": "
     << mem.workspace_high_water_bytes
     << ", \"workspace_reserved_bytes\": " << mem.workspace_reserved_bytes
     << ", \"tensor_heap_bytes\": " << mem.tensor_heap_bytes
     << ", \"tensor_pool_cached_bytes\": " << mem.tensor_pool_cached_bytes
     << "},\n  \"aggregate\": "
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
