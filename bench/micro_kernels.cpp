// Micro-benchmarks (google-benchmark) of the numeric kernels that dominate
// DECO's on-device cost: the ConvNet forward/backward passes, the GEMMs
// behind them, the gradient-distance computation, one full matching step and
// the procedural renderer. These quantify the per-layer cost model that
// DESIGN.md's scaling decisions rest on. The *Threads variants time three
// hot kernels at 1/2/4/8 pool threads. The packed-vs-naive GEMM shape sweep
// (BENCH_kernels.json) lives in perf_smoke.
#include <benchmark/benchmark.h>

#include <vector>

#include "deco/condense/grad_distance.h"
#include "deco/core/thread_pool.h"
#include "deco/condense/grad_utils.h"
#include "deco/condense/matcher.h"
#include "deco/data/world.h"
#include "deco/nn/convnet.h"
#include "deco/nn/loss.h"
#include "deco/tensor/ops.h"

namespace {

using namespace deco;

// GFLOP/s counter for a GEMM benchmark (2 flops per multiply-add).
void set_gflops(benchmark::State& state, int64_t m, int64_t n, int64_t k) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(state.iterations()) * static_cast<double>(m) *
          static_cast<double>(n) * static_cast<double>(k) * 1e-9,
      benchmark::Counter::kIsRate);
}

nn::ConvNetConfig paper_config() {
  nn::ConvNetConfig cfg;
  cfg.in_channels = 3;
  cfg.image_h = cfg.image_w = 16;
  cfg.num_classes = 10;
  cfg.width = 32;
  cfg.depth = 3;
  return cfg;
}

void BM_Matmul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a({n, n}), b({n, n});
  rng.fill_normal(a, 0, 1);
  rng.fill_normal(b, 0, 1);
  Tensor out;
  for (auto _ : state) {
    matmul_into(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  set_gflops(state, n, n, n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

void BM_ConvNetForward(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Rng rng(2);
  nn::ConvNet net(paper_config(), rng);
  Tensor x({batch, 3, 16, 16});
  rng.fill_uniform(x, 0, 1);
  for (auto _ : state) {
    Tensor y = net.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ConvNetForward)->Arg(1)->Arg(32);

void BM_ConvNetForwardBackward(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Rng rng(3);
  nn::ConvNet net(paper_config(), rng);
  Tensor x({batch, 3, 16, 16});
  rng.fill_uniform(x, 0, 1);
  std::vector<int64_t> labels(static_cast<size_t>(batch));
  for (int64_t i = 0; i < batch; ++i) labels[static_cast<size_t>(i)] = i % 10;
  for (auto _ : state) {
    net.zero_grad();
    Tensor logits = net.forward(x);
    auto ce = nn::weighted_cross_entropy(logits, labels);
    Tensor gx = net.backward(ce.grad_logits);
    benchmark::DoNotOptimize(gx.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ConvNetForwardBackward)->Arg(1)->Arg(32);

void BM_GradientDistance(benchmark::State& state) {
  Rng rng(4);
  nn::ConvNet net(paper_config(), rng);
  Tensor x({8, 3, 16, 16});
  rng.fill_uniform(x, 0, 1);
  std::vector<int64_t> labels{0, 1, 2, 3, 4, 5, 6, 7};
  net.zero_grad();
  auto ce = nn::weighted_cross_entropy(net.forward(x), labels);
  net.backward(ce.grad_logits);
  condense::GradVec a = condense::clone_grads(net);
  condense::GradVec b = a;
  for (Tensor& t : b) t.scale_(0.9f);
  for (auto _ : state) {
    auto res = condense::gradient_distance(a, b);
    benchmark::DoNotOptimize(res.value);
  }
}
BENCHMARK(BM_GradientDistance);

void BM_OneStepMatch(benchmark::State& state) {
  const int64_t ipc = state.range(0);
  Rng rng(5);
  nn::ConvNet net(paper_config(), rng);
  Tensor x_syn({ipc, 3, 16, 16});
  rng.fill_uniform(x_syn, 0, 1);
  std::vector<int64_t> y_syn(static_cast<size_t>(ipc), 0);
  Tensor x_real({32, 3, 16, 16});
  rng.fill_uniform(x_real, 0, 1);
  std::vector<int64_t> y_real(32, 0);
  condense::GradientMatcher matcher(net);
  for (auto _ : state) {
    auto res = matcher.match(x_syn, y_syn, x_real, y_real, {});
    benchmark::DoNotOptimize(res.distance);
  }
}
BENCHMARK(BM_OneStepMatch)->Arg(1)->Arg(10)->Arg(50);

// ---- thread-count sweeps ----------------------------------------------------
// The same kernels at DECO_NUM_THREADS ∈ {1, 2, 4, 8}. The deterministic
// chunking contract means every row of the sweep computes the identical
// result; only the wall clock should move. Captured before any bench runs so
// the sweeps can restore the environment's default pool size afterwards.
const int kDefaultThreads = core::num_threads();

void BM_MatmulThreads(benchmark::State& state) {
  core::set_num_threads(static_cast<int>(state.range(0)));
  const int64_t n = 128;
  Rng rng(1);
  Tensor a({n, n}), b({n, n});
  rng.fill_normal(a, 0, 1);
  rng.fill_normal(b, 0, 1);
  Tensor out;
  for (auto _ : state) {
    matmul_into(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  set_gflops(state, n, n, n);
  core::set_num_threads(kDefaultThreads);
}
BENCHMARK(BM_MatmulThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ConvNetForwardBackwardThreads(benchmark::State& state) {
  core::set_num_threads(static_cast<int>(state.range(0)));
  const int64_t batch = 32;
  Rng rng(3);
  nn::ConvNet net(paper_config(), rng);
  Tensor x({batch, 3, 16, 16});
  rng.fill_uniform(x, 0, 1);
  std::vector<int64_t> labels(static_cast<size_t>(batch));
  for (int64_t i = 0; i < batch; ++i) labels[static_cast<size_t>(i)] = i % 10;
  for (auto _ : state) {
    net.zero_grad();
    Tensor logits = net.forward(x);
    auto ce = nn::weighted_cross_entropy(logits, labels);
    Tensor gx = net.backward(ce.grad_logits);
    benchmark::DoNotOptimize(gx.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
  core::set_num_threads(kDefaultThreads);
}
BENCHMARK(BM_ConvNetForwardBackwardThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_OneStepMatchThreads(benchmark::State& state) {
  core::set_num_threads(static_cast<int>(state.range(0)));
  const int64_t ipc = 10;
  Rng rng(5);
  nn::ConvNet net(paper_config(), rng);
  Tensor x_syn({ipc, 3, 16, 16});
  rng.fill_uniform(x_syn, 0, 1);
  std::vector<int64_t> y_syn(static_cast<size_t>(ipc), 0);
  Tensor x_real({32, 3, 16, 16});
  rng.fill_uniform(x_real, 0, 1);
  std::vector<int64_t> y_real(32, 0);
  condense::GradientMatcher matcher(net);
  for (auto _ : state) {
    auto res = matcher.match(x_syn, y_syn, x_real, y_real, {});
    benchmark::DoNotOptimize(res.distance);
  }
  core::set_num_threads(kDefaultThreads);
}
BENCHMARK(BM_OneStepMatchThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_RenderFrame(benchmark::State& state) {
  data::ProceduralImageWorld world(data::core50_spec(), 6);
  int64_t frame = 0;
  for (auto _ : state) {
    Tensor img = world.render(frame % 10, 0, 0, frame);
    benchmark::DoNotOptimize(img.data());
    ++frame;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RenderFrame);

}  // namespace

BENCHMARK_MAIN();
