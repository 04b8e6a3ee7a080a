// The determinism contract of core::ThreadPool, end to end: every parallel
// kernel, every condenser and a two-segment learner run must produce BITWISE
// identical results at DECO_NUM_THREADS ∈ {1, 2, 4, 8}. The sweep uses
// core::set_num_threads so one process covers all four widths (the env var
// only seeds the initial pool size). Comparisons are memcmp on raw float
// bytes — tolerance-based comparison would hide exactly the reassociation
// bugs this suite exists to catch.
#include "deco/core/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <vector>

#include "deco/condense/method.h"
#include "deco/core/learner.h"
#include "deco/data/world.h"
#include "deco/nn/convnet.h"
#include "deco/nn/loss.h"
#include "deco/tensor/check.h"
#include "deco/tensor/ops.h"
#include "test_util.h"

namespace deco {
namespace {

const std::vector<int> kSweep{1, 2, 4, 8};

std::vector<unsigned char> bytes_of(const Tensor& t) {
  const auto* p = reinterpret_cast<const unsigned char*>(t.data());
  return {p, p + t.numel() * sizeof(float)};
}

std::vector<unsigned char> bytes_of(const std::vector<float>& v) {
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  return {p, p + v.size() * sizeof(float)};
}

// Runs `scenario` once per thread count and asserts every run produces the
// byte-identical result. Restores the thread count afterwards.
void expect_bitwise_invariant(
    const std::function<std::vector<unsigned char>()>& scenario) {
  const int saved = core::num_threads();
  std::vector<unsigned char> reference;
  for (int t : kSweep) {
    core::set_num_threads(t);
    std::vector<unsigned char> got = scenario();
    if (t == kSweep.front()) {
      reference = std::move(got);
      ASSERT_FALSE(reference.empty());
    } else {
      ASSERT_EQ(got.size(), reference.size()) << "at threads=" << t;
      EXPECT_EQ(std::memcmp(got.data(), reference.data(), got.size()), 0)
          << "bitwise mismatch vs threads=1 at threads=" << t;
    }
  }
  core::set_num_threads(saved);
}

// ---- pool mechanics ---------------------------------------------------------

TEST(ThreadPoolTest, SetNumThreadsRebuildsPool) {
  const int saved = core::num_threads();
  core::set_num_threads(3);
  EXPECT_EQ(core::num_threads(), 3);
  core::set_num_threads(1);
  EXPECT_EQ(core::num_threads(), 1);
  core::set_num_threads(saved);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  const int saved = core::num_threads();
  core::set_num_threads(4);
  const int64_t n = 10007;
  std::vector<int> hits(static_cast<size_t>(n), 0);
  core::parallel_for(0, n, 64, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), n);
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
  core::set_num_threads(saved);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  const int saved = core::num_threads();
  core::set_num_threads(4);
  std::atomic<int64_t> total{0};
  core::parallel_for(0, 8, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      int64_t inner = 0;
      core::parallel_for(0, 100, 10, [&](int64_t ib, int64_t ie) {
        inner += ie - ib;  // safe: nested regions run inline on this thread
      });
      total.fetch_add(inner);
    }
  });
  EXPECT_EQ(total.load(), 8 * 100);
  core::set_num_threads(saved);
}

TEST(ThreadPoolTest, RapidJobBoundariesNeverRunStaleTasks) {
  // Regression test for a job-handoff race: a worker that woke for job N but
  // was preempted before claiming a chunk must not execute job N's (by then
  // destroyed) task against job N+1's chunk counter. Many back-to-back tiny
  // jobs maximize late wakeups; each task writes its own job id, so a stale
  // execution shows up as a wrong or missing value (and as a use-after-free
  // under TSan/ASan, since each std::function dies when its run returns).
  const int saved = core::num_threads();
  core::set_num_threads(4);
  for (int job = 0; job < 2000; ++job) {
    const int64_t chunks = 2 + job % 3;  // >1 so the pool path is taken
    std::vector<int> got(static_cast<size_t>(chunks), -1);
    core::run_chunks(chunks,
                     [&](int64_t c) { got[static_cast<size_t>(c)] = job; });
    for (int64_t c = 0; c < chunks; ++c)
      ASSERT_EQ(got[static_cast<size_t>(c)], job)
          << "chunk " << c << " of job " << job << " ran a stale task";
  }
  core::set_num_threads(saved);
}

TEST(ThreadPoolTest, SetNumThreadsInsidePoolTaskThrows) {
  // Rebuilding the pool from inside a task would destroy the very workers
  // executing it; the guard must fail loudly instead.
  const int saved = core::num_threads();
  core::set_num_threads(2);
  EXPECT_THROW(core::run_chunks(4, [](int64_t) { core::set_num_threads(1); }),
               Error);
  EXPECT_EQ(core::num_threads(), 2);  // pool unchanged and still usable
  std::atomic<int64_t> count{0};
  core::run_chunks(4, [&](int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
  core::set_num_threads(saved);
}

TEST(ThreadPoolTest, TaskExceptionPropagatesToCaller) {
  const int saved = core::num_threads();
  core::set_num_threads(4);
  EXPECT_THROW(
      core::parallel_for(0, 100, 1,
                         [&](int64_t b, int64_t) {
                           if (b == 37) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<int64_t> count{0};
  core::parallel_for(0, 16, 1,
                     [&](int64_t b, int64_t e) { count.fetch_add(e - b); });
  EXPECT_EQ(count.load(), 16);
  core::set_num_threads(saved);
}

TEST(ThreadPoolTest, ParallelReduceIsBitwiseStable) {
  // An ill-conditioned sum (alternating huge/tiny terms) whose value depends
  // on association order — exactly what the ordered merge must pin down.
  std::vector<double> terms(4099);
  Rng rng(5);
  for (size_t i = 0; i < terms.size(); ++i)
    terms[i] = (i % 2 == 0 ? 1e12 : 1e-9) * rng.uniform();
  expect_bitwise_invariant([&] {
    const double sum = core::parallel_reduce<double>(
        0, static_cast<int64_t>(terms.size()), 37, 0.0,
        [&](int64_t b, int64_t e) {
          double acc = 0.0;
          for (int64_t i = b; i < e; ++i)
            acc += terms[static_cast<size_t>(i)];
          return acc;
        },
        [](double a, double b) { return a + b; });
    const auto* p = reinterpret_cast<const unsigned char*>(&sum);
    return std::vector<unsigned char>(p, p + sizeof(sum));
  });
}

// ---- kernel-level sweeps ----------------------------------------------------

TEST(ParallelDeterminismTest, MatmulFamily) {
  // Odd sizes so chunk boundaries land mid-row and the k%4 remainder runs.
  Rng rng(11);
  Tensor a = testing::random_tensor({37, 23}, rng);
  Tensor b = testing::random_tensor({23, 41}, rng);
  Tensor bt = testing::random_tensor({41, 23}, rng);
  Tensor at = testing::random_tensor({23, 37}, rng);
  expect_bitwise_invariant([&] {
    Tensor mm, tn, nt;
    matmul_into(a, b, mm);
    matmul_tn_into(at, b, tn);
    matmul_nt_into(a, bt, nt);
    std::vector<unsigned char> out = bytes_of(mm);
    const auto btn = bytes_of(tn), bnt = bytes_of(nt);
    out.insert(out.end(), btn.begin(), btn.end());
    out.insert(out.end(), bnt.begin(), bnt.end());
    return out;
  });
}

TEST(ParallelDeterminismTest, SoftmaxFamily) {
  Rng rng(12);
  Tensor logits = testing::random_tensor({33, 17}, rng, 4.0);
  expect_bitwise_invariant([&] {
    Tensor sm, lsm;
    softmax_rows_into(logits, sm);
    log_softmax_rows_into(logits, lsm);
    std::vector<unsigned char> out = bytes_of(sm);
    const auto b2 = bytes_of(lsm);
    out.insert(out.end(), b2.begin(), b2.end());
    return out;
  });
}

TEST(ParallelDeterminismTest, ConvNetForwardBackward) {
  expect_bitwise_invariant([&] {
    Rng rng(13);
    nn::ConvNetConfig cfg;
    cfg.in_channels = 3;
    cfg.image_h = cfg.image_w = 16;
    cfg.num_classes = 4;
    cfg.width = 8;
    cfg.depth = 2;
    nn::ConvNet net(cfg, rng);
    Tensor x = testing::random_tensor({5, 3, 16, 16}, rng, 0.5);
    net.zero_grad();
    Tensor logits = net.forward(x);
    auto ce = nn::weighted_cross_entropy(logits, {0, 1, 2, 3, 0});
    Tensor gx = net.backward(ce.grad_logits);
    std::vector<unsigned char> out = bytes_of(logits);
    const auto bgx = bytes_of(gx);
    out.insert(out.end(), bgx.begin(), bgx.end());
    for (auto& p : net.parameters()) {
      const auto bg = bytes_of(*p.grad);
      out.insert(out.end(), bg.begin(), bg.end());
    }
    return out;
  });
}

// ---- condenser-level sweeps -------------------------------------------------

nn::ConvNetConfig small_config() {
  nn::ConvNetConfig cfg;
  cfg.in_channels = 3;
  cfg.image_h = cfg.image_w = 16;
  cfg.num_classes = 4;
  cfg.width = 8;
  cfg.depth = 2;
  return cfg;
}

struct CondenseFixture {
  CondenseFixture()
      : rng(1), model(small_config(), rng), buffer(4, 2, 3, 16, 16),
        world(make_spec(), 7) {
    data::Dataset labeled = world.make_labeled_set(3, 1);
    buffer.init_from_dataset(labeled, rng);
    x_real = Tensor({8, 3, 16, 16});
    for (int64_t i = 0; i < 8; ++i) {
      const int64_t cls = i < 4 ? 0 : 2;
      Tensor img = world.render(cls, 0, 0, 100 + i);
      std::copy(img.data(), img.data() + img.numel(),
                x_real.data() + i * img.numel());
      y_real.push_back(cls);
      w_real.push_back(0.9f);
    }
    active = {0, 2};
  }

  static data::DatasetSpec make_spec() {
    data::DatasetSpec s = data::icub1_spec();
    s.num_classes = 4;
    return s;
  }

  condense::CondenseContext context() {
    condense::CondenseContext ctx;
    ctx.buffer = &buffer;
    ctx.x_real = &x_real;
    ctx.y_real = &y_real;
    ctx.w_real = &w_real;
    ctx.active_classes = &active;
    ctx.deployed_model = &model;
    ctx.rng = &rng;
    return ctx;
  }

  Rng rng;
  nn::ConvNet model;
  condense::SyntheticBuffer buffer;
  data::ProceduralImageWorld world;
  Tensor x_real;
  std::vector<int64_t> y_real;
  std::vector<float> w_real;
  std::vector<int64_t> active;
};

TEST(ParallelDeterminismTest, DecoCondenser) {
  expect_bitwise_invariant([&] {
    CondenseFixture f;
    condense::DecoCondenserConfig cfg;
    cfg.iterations = 3;
    condense::DecoCondenser cond(small_config(), cfg, 11);
    auto ctx = f.context();
    cond.condense(ctx);
    std::vector<unsigned char> out = bytes_of(f.buffer.images());
    const auto bd = bytes_of(cond.last_distances());
    out.insert(out.end(), bd.begin(), bd.end());
    return out;
  });
}

TEST(ParallelDeterminismTest, BilevelCondenserDcAndDsa) {
  for (const char* strategy : {"", "flip_shift_scale_rotate_color_cutout"}) {
    expect_bitwise_invariant([&] {
      CondenseFixture f;
      condense::BilevelConfig cfg;
      cfg.outer_loops = 1;
      cfg.inner_epochs = 2;
      cfg.model_steps = 1;
      cfg.dsa_strategy = strategy;
      condense::BilevelCondenser cond(small_config(), cfg, 16);
      auto ctx = f.context();
      cond.condense(ctx);
      return bytes_of(f.buffer.images());
    });
  }
}

TEST(ParallelDeterminismTest, DmCondenser) {
  expect_bitwise_invariant([&] {
    CondenseFixture f;
    condense::DmConfig cfg;
    cfg.iterations = 2;
    condense::DmCondenser cond(small_config(), cfg, 18);
    auto ctx = f.context();
    cond.condense(ctx);
    return bytes_of(f.buffer.images());
  });
}

// ---- learner-level sweep ----------------------------------------------------

TEST(ParallelDeterminismTest, LearnerTwoSegmentsAndCheckpoint) {
  namespace fs = std::filesystem;
  const fs::path path = deco::testing::unique_temp_path("ckpt.bin");
  expect_bitwise_invariant([&] {
    Rng rng(21);
    nn::ConvNet model(small_config(), rng);
    data::ProceduralImageWorld world(CondenseFixture::make_spec(), 7);
    data::Dataset labeled = world.make_labeled_set(3, 1);

    core::DecoConfig cfg;
    cfg.ipc = 2;
    cfg.beta = 2;  // second segment triggers a model update too
    cfg.model_update_epochs = 2;
    cfg.condenser.iterations = 2;
    core::DecoLearner learner(model, cfg, 31);
    learner.init_buffer_from(labeled);

    std::vector<unsigned char> out;
    for (int64_t seg = 0; seg < 2; ++seg) {
      Tensor images({6, 3, 16, 16});
      for (int64_t i = 0; i < 6; ++i) {
        Tensor img = world.render((seg + i) % 4, 0, 0, 300 + seg * 16 + i);
        std::copy(img.data(), img.data() + img.numel(),
                  images.data() + i * img.numel());
      }
      core::SegmentReport rep = learner.observe_segment(images);
      const auto* pd = reinterpret_cast<const unsigned char*>(
          &rep.condense_distance);
      out.insert(out.end(), pd, pd + sizeof(rep.condense_distance));
      for (int64_t l : rep.pseudo_labels)
        out.push_back(static_cast<unsigned char>(l & 0xff));
      const auto bc = bytes_of(rep.confidences);
      out.insert(out.end(), bc.begin(), bc.end());
    }

    // The checkpoint file covers model params, buffer, velocity and rng
    // state in one blob — a byte-identical file is the strongest equality.
    learner.save_state(path.string());
    std::ifstream in(path, std::ios::binary);
    std::vector<unsigned char> file((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
    out.insert(out.end(), file.begin(), file.end());
    fs::remove(path);
    return out;
  });
}

}  // namespace
}  // namespace deco
