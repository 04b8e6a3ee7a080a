// The ConvNet's conv and per-plane kernels against the code they replaced,
// compared byte for byte (memcmp) at 1 and 4 threads:
//   * pad_into + conv_forward_into (the padded input read through offset
//     tables against packed Wᵀ, written to NCHW plus bias) against
//     matmul_into(W, im2col_into(x)) permuted to NCHW plus bias,
//     conv_weight_grad_acc_into (the same tables against packed dyᵀ)
//     against matmul_nt_acc_into on the permuted dy, conv_input_grad_into
//     (the dX product drained through col2im tile by tile) against
//     matmul_tn_into + col2im_into, and a Conv2d layer (including its bias
//     grad) against the same references; with ±Inf inputs, NaN and Inf
//     must land where the references put them; and each conv entry's
//     gemm/pack_bytes must be the small operand's, computed from the shape;
//   * InstanceNorm2d and AvgPool2d forward/backward against the one-plane
//     loops kept below, with N·C not a multiple of the 8-plane block;
//   * NormReluPool against InstanceNorm2d → ReLU → AvgPool2d(2), under every
//     GradNeed, also with outputs exactly on ReLU's edge; and its forward
//     takes from the heap only x̂, inv_std and the output;
//   * Conv2d's dW after two forwards: it must come from the second input.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "deco/core/telemetry.h"
#include "deco/core/thread_pool.h"
#include "deco/core/workspace.h"
#include "deco/nn/layers.h"
#include "deco/tensor/buffer_pool.h"
#include "deco/tensor/check.h"
#include "deco/tensor/ops.h"
#include "test_util.h"

namespace deco {
namespace {

using deco::testing::random_tensor;

::testing::AssertionResult same_bytes(const Tensor& got, const Tensor& want) {
  if (got.shape() != want.shape()) {
    return ::testing::AssertionFailure()
           << "shape " << got.shape_str() << " vs " << want.shape_str();
  }
  if (std::memcmp(got.data(), want.data(), got.numel() * sizeof(float)) != 0) {
    return ::testing::AssertionFailure() << "bytes differ";
  }
  return ::testing::AssertionSuccess();
}

// Runs `body` at 1 and at 4 pool threads, then restores the pool size.
void at_1_and_4_threads(const std::function<void()>& body) {
  const int saved = core::num_threads();
  for (int t : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(t));
    core::set_num_threads(t);
    body();
  }
  core::set_num_threads(saved);
}

nn::ParamRef param(nn::Module& m, const std::string& name) {
  for (nn::ParamRef& p : m.parameters()) {
    if (p.name == name) return p;
  }
  ADD_FAILURE() << "no parameter " << name;
  return {};
}

// ---- convolution GEMMs ---------------------------------------------------------

// The GEMM-layout [out_ch, N*oh*ow] product permuted to NCHW with bias[oc]
// added: the forward output Conv2d used to build.
Tensor permuted_plus_bias(const Tensor& mat, const Tensor& bias, int64_t batch,
                          int64_t oh, int64_t ow) {
  const int64_t m = mat.dim(0), per_sample = oh * ow;
  Tensor out({batch, m, oh, ow});
  for (int64_t n = 0; n < batch; ++n)
    for (int64_t oc = 0; oc < m; ++oc)
      for (int64_t i = 0; i < per_sample; ++i)
        out[(n * m + oc) * per_sample + i] =
            mat.at2(oc, n * per_sample + i) + bias[oc];
  return out;
}

// NCHW dy permuted to the GEMM layout [out_ch, N*oh*ow].
Tensor permuted_to_gemm(const Tensor& dy) {
  const int64_t batch = dy.dim(0), m = dy.dim(1);
  const int64_t per_sample = dy.dim(2) * dy.dim(3);
  Tensor mat({m, batch * per_sample});
  for (int64_t oc = 0; oc < m; ++oc)
    for (int64_t n = 0; n < batch; ++n)
      for (int64_t i = 0; i < per_sample; ++i)
        mat.at2(oc, n * per_sample + i) = dy[(n * m + oc) * per_sample + i];
  return mat;
}

// Every convolution kernel against its materialized reference, and a
// Conv2d layer against the same references, onto non-zero starting grads.
void expect_conv_gemm_matches(int64_t batch, int64_t channels, int64_t h,
                              int64_t w, int64_t kernel, int64_t stride,
                              int64_t padding, int64_t out_channels,
                              uint64_t seed) {
  SCOPED_TRACE("N=" + std::to_string(batch) + " C=" + std::to_string(channels) +
               " H=" + std::to_string(h) + " W=" + std::to_string(w) +
               " k=" + std::to_string(kernel) + " s=" + std::to_string(stride) +
               " p=" + std::to_string(padding) +
               " M=" + std::to_string(out_channels));
  const Conv2dGeometry g{channels, h, w, kernel, kernel, stride, padding};
  const int64_t oh = g.out_h(), ow = g.out_w();
  Rng rng(seed);
  const Tensor x = random_tensor({batch, channels, h, w}, rng);
  const Tensor weight = random_tensor({out_channels, g.col_rows()}, rng);
  const Tensor bias = random_tensor({out_channels}, rng);
  const Tensor dy = random_tensor({batch, out_channels, oh, ow}, rng);
  const Tensor dy_mat = permuted_to_gemm(dy);

  // Forward: W·im2col(x), permuted to NCHW, plus bias.
  Tensor cols, mat;
  im2col_into(x, g, cols);
  matmul_into(weight, cols, mat);
  const Tensor want_y = permuted_plus_bias(mat, bias, batch, oh, ow);
  Tensor padded, got_y;
  pad_into(x, g, padded);
  conv_forward_into(weight, bias, padded, g, got_y);
  EXPECT_TRUE(same_bytes(got_y, want_y));

  // dW: both accumulate onto the same non-zero start.
  const Tensor dw_start = random_tensor({out_channels, g.col_rows()}, rng);
  Tensor want_dw = dw_start;
  matmul_nt_acc_into(dy_mat, cols, want_dw);
  Tensor got_dw = dw_start;
  conv_weight_grad_acc_into(dy, padded, g, got_dw);
  EXPECT_TRUE(same_bytes(got_dw, want_dw));

  // dX: the fused product + col2im against the column matrix folded back;
  // the output starts as garbage, so every plane must be rewritten whole.
  Tensor dcols, want_dx({batch, channels, h, w});
  matmul_tn_into(weight, dy_mat, dcols);
  col2im_into(dcols, g, want_dx);
  Tensor got_dx = random_tensor(want_dx.shape(), rng);
  conv_input_grad_into(weight, dy, g, got_dx);
  EXPECT_TRUE(same_bytes(got_dx, want_dx));

  // The layer: same output, dX and dW, and a bias grad summed per channel in
  // (n, pixel) order in double, all onto non-zero starting grads.
  Rng init(seed);
  nn::Conv2d conv(channels, out_channels, kernel, stride, padding, init);
  *param(conv, "conv.weight").value = weight;
  *param(conv, "conv.bias").value = bias;
  const Tensor db_start = random_tensor({out_channels}, rng);
  *param(conv, "conv.weight").grad = dw_start;
  *param(conv, "conv.bias").grad = db_start;
  EXPECT_TRUE(same_bytes(conv.forward(x), want_y));
  EXPECT_TRUE(same_bytes(conv.backward(dy), want_dx));
  Tensor want_db = db_start;
  for (int64_t oc = 0; oc < out_channels; ++oc) {
    double sum = 0.0;
    for (int64_t j = 0; j < dy_mat.dim(1); ++j) sum += dy_mat.at2(oc, j);
    want_db[oc] += static_cast<float>(sum);
  }
  EXPECT_TRUE(same_bytes(*param(conv, "conv.weight").grad, want_dw));
  EXPECT_TRUE(same_bytes(*param(conv, "conv.bias").grad, want_db));
}

TEST(ConvKernelsTest, GemmConvMatchesMatmulOverIm2col) {
  // At kernel 3 the 3 channels give 27 taps: the dW GEMM's one B strip is
  // partial.
  at_1_and_4_threads([] {
    bool saw_partial_strip = false;
    uint64_t seed = 300;
    for (int64_t kernel : {1, 3, 5}) {
      for (int64_t stride : {1, 2}) {
        for (int64_t padding : {0, 1, 2}) {
          for (int64_t batch : {1, 3}) {
            // H != W, and H, W >= kernel so every geometry is valid.
            const int64_t h = 7, w = 9;
            const Conv2dGeometry g{3, h, w, kernel, kernel, stride, padding};
            saw_partial_strip |= batch * g.out_h() * g.out_w() % 32 != 0;
            expect_conv_gemm_matches(batch, 3, h, w, kernel, stride, padding,
                                     5, seed++);
          }
        }
      }
    }
    EXPECT_TRUE(saw_partial_strip);
  });
}

TEST(ConvKernelsTest, GemmConvMatchesAtWidthsDividingTheStrip) {
  // At output widths 4/8/16/32 and stride 1 every run of a strip is a whole
  // output row; both shapes leave a partial last strip at some width, the
  // second with H != W.
  at_1_and_4_threads([] {
    uint64_t seed = 350;
    for (int64_t side : {4, 8, 16, 32}) {
      expect_conv_gemm_matches(3, 5, side, side, 3, 1, 1, 7, seed++);
      expect_conv_gemm_matches(1, 2, side + 4, side + 2, 3, 1, 0, 3, seed++);
    }
  });
}

TEST(ConvKernelsTest, GemmConvMatchesAcrossBlockBoundaries) {
  // Forward: k = 270 crosses the KC block, n = 570 the NC tile, m = 70 the
  // MC tile, and a 19-wide output row straddles NR strips. dW: k = 570
  // pixels crosses the KC block twice, and the 270 taps end in a partial
  // NR strip. dX: 30 channels leave a 6-channel last block of 54 rows.
  at_1_and_4_threads([] {
    expect_conv_gemm_matches(3, 30, 10, 19, 3, 1, 1, 70, 410);
  });
}

TEST(ConvKernelsTest, ConvInputGradMatchesMatmulTnAndCol2im) {
  // The dX tile is 8 input channels × about 256 columns (whole samples).
  at_1_and_4_threads([] {
    uint64_t seed = 450;
    // 13 channels: one full block and a 5-channel block; 3 channels: one
    // partial block. 8×8 output planes take 4 samples a block, so batch 7
    // ends in a 3-sample block; 4×4 planes take 16, so batch 17 ends in 1.
    for (int64_t channels : {3, 13}) {
      expect_conv_gemm_matches(7, channels, 8, 8, 3, 1, 1, 6, seed++);
      expect_conv_gemm_matches(17, channels, 4, 4, 3, 1, 1, 6, seed++);
      expect_conv_gemm_matches(5, channels, 16, 16, 3, 2, 1, 4, seed++);
    }
    // A 3×5 output plane: 17 samples (255 columns) a block, so batch 20
    // ends in a 3-sample block, and block columns straddle NR strips.
    expect_conv_gemm_matches(20, 13, 3, 5, 3, 1, 1, 5, seed++);
    // 300 output channels: the dX product's k crosses the KC block.
    expect_conv_gemm_matches(2, 13, 6, 6, 3, 1, 1, 300, seed++);
  });
}

TEST(ConvKernelsTest, GemmConvMatchesAcrossChannelLanes) {
  // The conv forward and dW put output channels in the 32 vector lanes: 16
  // fills half a lane panel, 32 one, 33 spills one channel into a second.
  // Output planes of 5×7 and 5×3 pixels are not multiples of the 8-pixel
  // strip, so strips cross sample boundaries.
  at_1_and_4_threads([] {
    uint64_t seed = 480;
    for (int64_t out_channels : {16, 32, 33}) {
      expect_conv_gemm_matches(3, 5, 5, 7, 3, 1, 1, out_channels, seed++);
      expect_conv_gemm_matches(2, 4, 9, 6, 3, 2, 1, out_channels, seed++);
    }
  });
}

// NaN where `want` has NaN, and every other element bitwise equal (so ±Inf
// lands where `want` puts it).
::testing::AssertionResult same_values(const Tensor& got, const Tensor& want) {
  if (got.shape() != want.shape()) {
    return ::testing::AssertionFailure()
           << "shape " << got.shape_str() << " vs " << want.shape_str();
  }
  for (int64_t i = 0; i < got.numel(); ++i) {
    const bool nan = std::isnan(want[i]);
    if (nan ? !std::isnan(got[i])
            : std::memcmp(got.data() + i, want.data() + i, sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got[i] << " vs " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// Counts of NaN, ±Inf and finite elements.
struct Kinds {
  int64_t nan = 0, inf = 0, finite = 0;
};
Kinds kinds(const Tensor& t) {
  Kinds k;
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (std::isnan(t[i])) {
      ++k.nan;
    } else if (std::isinf(t[i])) {
      ++k.inf;
    } else {
      ++k.finite;
    }
  }
  return k;
}

TEST(ConvKernelsTest, ConvKernelsPropagateInfLikeTheMaterializedProducts) {
  // One +Inf and one −Inf inside x, +Inf in one weight and −Inf in one dy
  // element. Inf times the zero border, and Infs of both signs meeting in a
  // sum, give NaN; the rest of an Inf's reach stays ±Inf.
  const Conv2dGeometry g{3, 5, 7, 3, 3, 1, 1};
  const int64_t batch = 3, m = 33, oh = g.out_h(), ow = g.out_w();
  Rng rng(490);
  Tensor x = random_tensor({batch, 3, 5, 7}, rng);
  Tensor weight = random_tensor({m, g.col_rows()}, rng);
  const Tensor bias = random_tensor({m}, rng);
  Tensor dy = random_tensor({batch, m, oh, ow}, rng);
  const float inf = std::numeric_limits<float>::infinity();
  x[(1 * 3 + 2) * 35 + 2 * 7 + 3] = inf;  // sample 1, channel 2, (2, 3)
  x[(2 * 3 + 0) * 35 + 0 * 7 + 6] = -inf;  // sample 2, channel 0, (0, 6)
  weight.at2(20, 13) = inf;
  dy[(0 * m + 5) * 35 + 17] = -inf;

  Tensor cols, mat;
  im2col_into(x, g, cols);
  matmul_into(weight, cols, mat);
  const Tensor want_y = permuted_plus_bias(mat, bias, batch, oh, ow);
  const Tensor dy_mat = permuted_to_gemm(dy);
  const Tensor dw_start = random_tensor({m, g.col_rows()}, rng);
  Tensor want_dw = dw_start;
  matmul_nt_acc_into(dy_mat, cols, want_dw);
  Tensor dcols, want_dx({batch, 3, 5, 7});
  matmul_tn_into(weight, dy_mat, dcols);
  col2im_into(dcols, g, want_dx);
  // Every reference holds NaN, ±Inf and finite elements.
  for (const Tensor* want : {&want_y, &std::as_const(want_dw),
                             &std::as_const(want_dx)}) {
    const Kinds k = kinds(*want);
    EXPECT_GT(k.nan, 0);
    EXPECT_GT(k.inf, 0);
    EXPECT_GT(k.finite, 0);
  }

  at_1_and_4_threads([&] {
    Tensor padded, got_y;
    pad_into(x, g, padded);
    conv_forward_into(weight, bias, padded, g, got_y);
    EXPECT_TRUE(same_values(got_y, want_y));
    Tensor got_dw = dw_start;
    conv_weight_grad_acc_into(dy, padded, g, got_dw);
    EXPECT_TRUE(same_values(got_dw, want_dw));
    Tensor got_dx;
    conv_input_grad_into(weight, dy, g, got_dx);
    EXPECT_TRUE(same_values(got_dx, want_dx));
  });
}

TEST(ConvKernelsTest, ConvProductsPackOnlyTheSmallOperand) {
  // The forward packs Wᵀ and nothing else, dW packs dyᵀ once, and dX packs
  // Wᵀ in 8-row strips plus every dy column once (8×8 planes are whole
  // 32-column strips), whatever the thread count. None of them packs
  // anything the size of the im2col matrix.
#if !DECO_TELEMETRY_COMPILED
  GTEST_SKIP() << "telemetry compiled out (-DDECO_TELEMETRY=OFF)";
#endif
  namespace telem = core::telemetry;
  const bool was_enabled = telem::enabled();
  telem::set_enabled(true);
  auto delta = [](const char* name, const std::function<void()>& op) {
    const int64_t before = telem::snapshot().counter_value(name);
    op();
    return telem::snapshot().counter_value(name) - before;
  };
  const int64_t f = sizeof(float);
  for (int64_t m : {16, 33}) {
    SCOPED_TRACE("M=" + std::to_string(m));
    const Conv2dGeometry g{5, 8, 8, 3, 3, 1, 1};
    const int64_t batch = 7, taps = g.col_rows(), pixels = batch * 64;
    const int64_t lanes = (m + 31) / 32 * 32;
    Rng rng(495);
    const Tensor x = random_tensor({batch, 5, 8, 8}, rng);
    const Tensor weight = random_tensor({m, taps}, rng);
    const Tensor bias = random_tensor({m}, rng);
    const Tensor dy = random_tensor({batch, m, 8, 8}, rng);
    Tensor padded, y, dw({m, taps}), dx;
    pad_into(x, g, padded);
    at_1_and_4_threads([&] {
      EXPECT_EQ(delta("gemm/pack_bytes",
                      [&] { conv_forward_into(weight, bias, padded, g, y); }),
                lanes * taps * f);
      EXPECT_EQ(delta("gemm/pack_bytes",
                      [&] { conv_weight_grad_acc_into(dy, padded, g, dw); }),
                lanes * pixels * f);
      EXPECT_EQ(delta("gemm/pack_bytes",
                      [&] { conv_input_grad_into(weight, dy, g, dx); }),
                ((taps + 7) / 8 * 8 + pixels) * m * f);
      // Calls and flops are those of the GEMMs on materialized operands.
      EXPECT_EQ(delta("gemm/flops",
                      [&] { conv_forward_into(weight, bias, padded, g, y); }),
                2 * m * taps * pixels);
      EXPECT_EQ(delta("gemm/calls",
                      [&] { conv_weight_grad_acc_into(dy, padded, g, dw); }),
                1);
    });
  }
  telem::set_enabled(was_enabled);
}

TEST(ConvKernelsTest, GemmConvRejectsKernelLargerThanPaddedInput) {
  const Conv2dGeometry g{1, 2, 2, 3, 3, 1, 0};
  Tensor padded, out;
  pad_into(Tensor({1, 1, 2, 2}), g, padded);
  EXPECT_THROW(conv_forward_into(Tensor({1, 9}), Tensor({1}), padded, g, out),
               Error);
  Tensor dw({1, 9});
  EXPECT_THROW(conv_weight_grad_acc_into(Tensor({1, 1, 0, 0}), padded, g, dw),
               Error);
  EXPECT_THROW(
      conv_input_grad_into(Tensor({1, 9}), Tensor({1, 1, 0, 0}), g, out),
      Error);
}

TEST(ConvKernelsTest, ConvKernelsRejectMismatchedGrad) {
  const Conv2dGeometry g{2, 5, 5, 3, 3, 1, 1};
  Tensor padded, dw({4, 18}), dx;
  pad_into(Tensor({3, 2, 5, 5}), g, padded);
  // Wrong batch, channel count and plane size; and a GEMM-layout grad.
  for (const Tensor& dy : {Tensor({2, 4, 5, 5}), Tensor({3, 3, 5, 5}),
                           Tensor({3, 4, 5, 4}), Tensor({4, 75})}) {
    EXPECT_THROW(conv_weight_grad_acc_into(dy, padded, g, dw), Error);
  }
  EXPECT_THROW(conv_input_grad_into(Tensor({4, 18}), Tensor({3, 3, 5, 5}), g, dx),
               Error);
  EXPECT_THROW(conv_input_grad_into(Tensor({4, 18}), Tensor({4, 75}), g, dx),
               Error);
  EXPECT_THROW(conv_forward_into(Tensor({4, 18}), Tensor({3}), padded, g, dx),
               Error);
}

// ---- InstanceNorm2d ----------------------------------------------------------

struct NormResult {
  Tensor out, dx, dgamma, dbeta;
};

// The one-plane-at-a-time InstanceNorm2d forward and backward.
NormResult reference_norm(const Tensor& x, const Tensor& gamma,
                          const Tensor& beta, const Tensor& dy, float eps) {
  const int64_t N = x.dim(0), C = x.dim(1), M = x.dim(2) * x.dim(3);
  NormResult r{Tensor(x.shape()), Tensor(x.shape()), Tensor({C}), Tensor({C})};
  Tensor xhat(x.shape());
  std::vector<float> inv_std(static_cast<size_t>(N * C));
  for (int64_t nc = 0; nc < N * C; ++nc) {
    const int64_t c = nc % C;
    const float* src = x.data() + nc * M;
    double mean = 0.0;
    for (int64_t i = 0; i < M; ++i) mean += src[i];
    mean /= static_cast<double>(M);
    double var = 0.0;
    for (int64_t i = 0; i < M; ++i) {
      const double d = src[i] - mean;
      var += d * d;
    }
    var /= static_cast<double>(M);
    const float inv = static_cast<float>(1.0 / std::sqrt(var + eps));
    inv_std[static_cast<size_t>(nc)] = inv;
    float* xh = xhat.data() + nc * M;
    float* dst = r.out.data() + nc * M;
    const float g = gamma[c], b = beta[c], mu = static_cast<float>(mean);
    for (int64_t i = 0; i < M; ++i) {
      xh[i] = (src[i] - mu) * inv;
      dst[i] = g * xh[i] + b;
    }
  }
  for (int64_t nc = 0; nc < N * C; ++nc) {
    const int64_t c = nc % C;
    const float* d = dy.data() + nc * M;
    const float* xh = xhat.data() + nc * M;
    double sum_dy = 0.0, sum_dy_xh = 0.0;
    for (int64_t i = 0; i < M; ++i) {
      sum_dy += d[i];
      sum_dy_xh += static_cast<double>(d[i]) * xh[i];
    }
    float* dx = r.dx.data() + nc * M;
    const float g = gamma[c];
    const float inv = inv_std[static_cast<size_t>(nc)];
    const float mean_dy = static_cast<float>(sum_dy / M);
    const float mean_dy_xh = static_cast<float>(sum_dy_xh / M);
    for (int64_t i = 0; i < M; ++i) {
      dx[i] = g * inv * (d[i] - mean_dy - xh[i] * mean_dy_xh);
    }
    r.dbeta[c] += static_cast<float>(sum_dy);
    r.dgamma[c] += static_cast<float>(sum_dy_xh);
  }
  return r;
}

struct NormInput {
  Tensor x, dy, gamma, beta;
};

// Planes whose double sums depend on their order: large values that cancel
// over the plane (x: +v, −v, +v, −v by quarter; dy: +D, +D, −D, −D, so Σx,
// Σdy and Σdy·x all cancel) on even elements, and values near 1e-3 on odd
// ones. The running sums reach ~1e10, where a double cannot hold the small
// values' low bits, and what survives depends on the order of the adds.
// β = 0, so a small element's output γ·x̂ (~1e-11) carries the mean's bits.
NormInput cancelling_planes(const std::vector<int64_t>& shape, Rng& rng) {
  NormInput in{Tensor(shape), Tensor(shape), random_tensor({shape[1]}, rng),
               Tensor({shape[1]})};
  const int64_t M = shape[2] * shape[3], quarter = M / 4;
  for (int64_t p = 0; p < shape[0] * shape[1]; ++p) {
    float* xp = in.x.data() + p * M;
    float* dp = in.dy.data() + p * M;
    for (int64_t j = 0; j < quarter; ++j) {
      const float v = static_cast<float>(rng.uniform(1e8, 2e8));
      const float D = static_cast<float>(rng.uniform(1e8, 2e8));
      for (int64_t q = 0; q < 4; ++q) {
        const int64_t i = q * quarter + j;
        if (j % 2 == 0) {
          xp[i] = q % 2 == 0 ? v : -v;
          dp[i] = q < 2 ? D : -D;
        } else {
          xp[i] = static_cast<float>(rng.uniform(-2e-3, 2e-3));
          dp[i] = static_cast<float>(rng.uniform(-2e-3, 2e-3));
        }
      }
    }
  }
  return in;
}

TEST(ConvKernelsTest, InstanceNormMatchesPerPlaneLoops) {
  // 15 and 63 planes of random values: one and seven full 8-plane blocks,
  // each with a tail. A double sum of a few dozen such floats has the same
  // bits in any order, so the last input is 9 planes of 16×16 whose sums do
  // change bits when reordered.
  std::vector<NormInput> inputs;
  Rng rng(500);
  for (const auto& [batch, channels] : {std::pair<int64_t, int64_t>{3, 5},
                                        std::pair<int64_t, int64_t>{7, 9}}) {
    Tensor x = random_tensor({batch, channels, 6, 5}, rng, 3.0);
    Tensor dy = random_tensor(x.shape(), rng);
    inputs.push_back({std::move(x), std::move(dy),
                      random_tensor({channels}, rng),
                      random_tensor({channels}, rng)});
  }
  inputs.push_back(cancelling_planes({3, 3, 16, 16}, rng));
  for (const NormInput& in : inputs) {
    SCOPED_TRACE("input " + in.x.shape_str());
    nn::InstanceNorm2d norm(in.x.dim(1));
    *param(norm, "norm.gamma").value = in.gamma;
    *param(norm, "norm.beta").value = in.beta;
    const NormResult want = reference_norm(in.x, in.gamma, in.beta, in.dy, 1e-5f);
    at_1_and_4_threads([&] {
      norm.zero_grad();
      EXPECT_TRUE(same_bytes(norm.forward(in.x), want.out));
      EXPECT_TRUE(same_bytes(norm.backward(in.dy), want.dx));
      EXPECT_TRUE(same_bytes(*param(norm, "norm.gamma").grad, want.dgamma));
      EXPECT_TRUE(same_bytes(*param(norm, "norm.beta").grad, want.dbeta));
    });
  }
}

// ---- AvgPool2d ---------------------------------------------------------------

// The general-kernel AvgPool2d loops, one plane at a time.
Tensor reference_pool_forward(const Tensor& x, int64_t k) {
  const int64_t N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  const int64_t oh = H / k, ow = W / k;
  Tensor out({N, C, oh, ow});
  const float inv = 1.0f / static_cast<float>(k * k);
  for (int64_t nc = 0; nc < N * C; ++nc) {
    const float* img = x.data() + nc * H * W;
    float* dst = out.data() + nc * oh * ow;
    for (int64_t oy = 0; oy < oh; ++oy) {
      for (int64_t ox = 0; ox < ow; ++ox) {
        double acc = 0.0;
        for (int64_t ky = 0; ky < k; ++ky) {
          const float* rowp = img + (oy * k + ky) * W + ox * k;
          for (int64_t kx = 0; kx < k; ++kx) acc += rowp[kx];
        }
        dst[oy * ow + ox] = static_cast<float>(acc) * inv;
      }
    }
  }
  return out;
}

Tensor reference_pool_backward(const Tensor& dy, const std::vector<int64_t>& in,
                               int64_t k) {
  const int64_t H = in[2], W = in[3], oh = H / k, ow = W / k;
  Tensor dx(in);
  const float inv = 1.0f / static_cast<float>(k * k);
  for (int64_t nc = 0; nc < in[0] * in[1]; ++nc) {
    float* img = dx.data() + nc * H * W;
    const float* src = dy.data() + nc * oh * ow;
    for (int64_t oy = 0; oy < oh; ++oy) {
      for (int64_t ox = 0; ox < ow; ++ox) {
        const float g = src[oy * ow + ox] * inv;
        for (int64_t ky = 0; ky < k; ++ky) {
          float* rowp = img + (oy * k + ky) * W + ox * k;
          for (int64_t kx = 0; kx < k; ++kx) rowp[kx] += g;
        }
      }
    }
  }
  return dx;
}

TEST(ConvKernelsTest, AvgPoolMatchesPerPlaneLoops) {
  for (int64_t kernel : {2, 3}) {
    for (const auto& [batch, channels] : {std::pair<int64_t, int64_t>{3, 5},
                                          std::pair<int64_t, int64_t>{7, 9}}) {
      SCOPED_TRACE("kernel=" + std::to_string(kernel));
      Rng rng(600 + kernel * 10 + batch);
      Tensor x = random_tensor({batch, channels, 6 * kernel, 4 * kernel}, rng);
      // An all −0 window: the double sum starts at +0.0, so the result is +0.
      for (int64_t ky = 0; ky < kernel; ++ky)
        for (int64_t kx = 0; kx < kernel; ++kx) x[ky * x.dim(3) + kx] = -0.0f;
      const Tensor want_y = reference_pool_forward(x, kernel);
      EXPECT_FALSE(std::signbit(want_y[0]));
      const Tensor dy = random_tensor(want_y.shape(), rng);
      const Tensor want_dx = reference_pool_backward(dy, x.shape(), kernel);
      at_1_and_4_threads([&] {
        nn::AvgPool2d pool(kernel);
        EXPECT_TRUE(same_bytes(pool.forward(x), want_y));
        EXPECT_TRUE(same_bytes(pool.backward(dy), want_dx));
      });
    }
  }
}

// ---- NormReluPool -------------------------------------------------------------

struct BlockInput {
  Tensor x, dy, gamma, beta;  // dy is the gradient of the pooled output
};

// Planes whose fused backward sums depend on their order. In raster order
// the 2×2 windows come in groups of eight, by x and pooled dy:
//   +v, +D | +v, −D | −v, ε | −v, ε | ε, ε | ε, ε | m, ε | m, ε
// with v, D in [1e8, 2e8], m = ±[1e5, 2e5] and every ε a fresh value near
// 1e-3. The ReLU masks off the −v windows; γ > 0 and β = 0 keep the ±v
// windows on their side of it. The masked Σdy and Σdy·x̂ then cancel their
// large terms, with small terms (ε/4 in Σdy, ε/4 · x̂ of an m window in
// Σdy·x̂) in between that a double running sum near 1e8 keeps only in part,
// and what it keeps depends on the order of the adds.
BlockInput cancelling_block_planes(const std::vector<int64_t>& shape,
                                   Rng& rng) {
  const int64_t C = shape[1], H = shape[2], W = shape[3];
  const int64_t oh = H / 2, ow = W / 2;
  BlockInput in{Tensor(shape), Tensor({shape[0], C, oh, ow}), Tensor({C}),
                Tensor({C})};
  for (int64_t c = 0; c < C; ++c) {
    in.gamma[c] = static_cast<float>(rng.uniform(0.5, 1.5));
  }
  auto uniform = [&](double lo, double hi) {
    return static_cast<float>(rng.uniform(lo, hi));
  };
  for (int64_t p = 0; p < shape[0] * C; ++p) {
    float* xp = in.x.data() + p * H * W;
    float* dp = in.dy.data() + p * oh * ow;
    float v = 0.0f, D = 0.0f;
    for (int64_t w = 0; w < oh * ow; ++w) {
      const int64_t kind = w % 8;
      if (kind == 0) {
        v = uniform(1e8, 2e8);
        D = uniform(1e8, 2e8);
      }
      dp[w] = kind == 0 ? D : kind == 1 ? -D : uniform(-2e-3, 2e-3);
      const int64_t oy = w / ow, ox = w % ow;
      for (int64_t i : {int64_t{0}, int64_t{1}, W, W + 1}) {
        float x = kind < 2 ? v : kind < 4 ? -v : uniform(-2e-3, 2e-3);
        if (kind >= 6) x = (x < 0.0f ? -1.0f : 1.0f) * uniform(1e5, 2e5);
        xp[2 * oy * W + 2 * ox + i] = x;
      }
    }
  }
  return in;
}

// NormReluPool against the three layers it fuses: forward, dx and the γ/β
// gradients, memcmp'd under every GradNeed at 1 and 4 threads.
void expect_block_matches_unfused(const BlockInput& in) {
  SCOPED_TRACE("input " + in.x.shape_str());
  const int64_t C = in.x.dim(1);
  // The reference: the three layers, backward under kAll, onto gradients
  // that start non-zero.
  nn::InstanceNorm2d norm(C);
  nn::ReLU relu;
  nn::AvgPool2d pool(2);
  *param(norm, "norm.gamma").value = in.gamma;
  *param(norm, "norm.beta").value = in.beta;
  Rng grads(801);
  const Tensor start_dgamma = random_tensor({C}, grads);
  const Tensor start_dbeta = random_tensor({C}, grads);
  *param(norm, "norm.gamma").grad = start_dgamma;
  *param(norm, "norm.beta").grad = start_dbeta;
  const Tensor want_y = pool.forward(relu.forward(norm.forward(in.x)));
  const Tensor want_dx = norm.backward(relu.backward(pool.backward(in.dy)));
  const Tensor want_dgamma = *param(norm, "norm.gamma").grad;
  const Tensor want_dbeta = *param(norm, "norm.beta").grad;

  at_1_and_4_threads([&] {
    for (nn::GradNeed need : {nn::GradNeed::kAll, nn::GradNeed::kInput,
                              nn::GradNeed::kParams}) {
      SCOPED_TRACE("need=" + std::to_string(static_cast<int>(need)));
      nn::NormReluPool block(C);
      std::vector<std::string> names;
      for (const nn::ParamRef& p : block.parameters()) names.push_back(p.name);
      EXPECT_EQ(names, (std::vector<std::string>{"norm.gamma", "norm.beta"}));
      *param(block, "norm.gamma").value = in.gamma;
      *param(block, "norm.beta").value = in.beta;
      *param(block, "norm.gamma").grad = start_dgamma;
      *param(block, "norm.beta").grad = start_dbeta;
      EXPECT_TRUE(same_bytes(block.forward(in.x), want_y));
      const Tensor dx = block.backward(in.dy, need);
      if (need == nn::GradNeed::kParams) {
        EXPECT_EQ(dx.numel(), 0);
      } else {
        EXPECT_TRUE(same_bytes(dx, want_dx));
      }
      const bool params = need != nn::GradNeed::kInput;
      EXPECT_TRUE(same_bytes(*param(block, "norm.gamma").grad,
                             params ? want_dgamma : start_dgamma));
      EXPECT_TRUE(same_bytes(*param(block, "norm.beta").grad,
                             params ? want_dbeta : start_dbeta));
    }
  });
}

TEST(ConvKernelsTest, NormReluPoolMatchesUnfusedLayers) {
  Rng rng(800);
  // 15 and 63 planes (8-plane blocks with a tail), H != W.
  for (const auto& [batch, channels] : {std::pair<int64_t, int64_t>{3, 5},
                                        std::pair<int64_t, int64_t>{7, 9}}) {
    Tensor x = random_tensor({batch, channels, 6, 10}, rng, 3.0);
    Tensor dy = random_tensor({batch, channels, 3, 5}, rng);
    Tensor beta = random_tensor({channels}, rng);
    // A channel whose every normalized output is negative: the ReLU masks
    // its planes whole, so its dy is all zeros, some of them −0.
    beta[1] = -100.0f;
    // A plane whose pooled gradient is all −0: its dy must come out +0.
    for (int64_t i = 0; i < 15; ++i) dy[2 * 15 + i] = -0.0f;
    expect_block_matches_unfused({std::move(x), std::move(dy),
                                  random_tensor({channels}, rng),
                                  std::move(beta)});
  }
  expect_block_matches_unfused(cancelling_block_planes({3, 3, 16, 16}, rng));
}

// Planes with normalized outputs exactly on ReLU's edge. Every channel's
// planes are copies of one plane, and its pixel `kEdge` recurs at
// kEdgeCopies (in other windows, and among the last M mod 8 elements the
// 8×8 relayout copies one by one), so the edge shows in 8-plane blocks and
// in one-plane tails. β_c = −fl(γ_c·x̂) of that pixel, so there γ·x̂ + β is
// exactly +0 when the product is exact (channels 0–2: γ = 1, ½, −2), and
// the product's rounding residual, of either sign, or 0 otherwise (FMA
// contraction). Channel C − 1's planes sum to exactly 0 and hold a +0 at
// kEdge and a −0 beside it, so β is −0 and the −0 pixel's output is −0.
constexpr int64_t kEdge = 12;
constexpr int64_t kEdgeCopies[] = {kEdge, 25, 47, 57, 59};

BlockInput relu_edge_planes(Rng& rng) {
  const int64_t N = 3, C = 9, H = 6, W = 10, M = H * W;
  BlockInput in{random_tensor({N, C, H, W}, rng, 3.0),
                random_tensor({N, C, H / 2, W / 2}, rng), Tensor({C}),
                Tensor({C})};
  const float exact_gamma[] = {1.0f, 0.5f, -2.0f};
  for (int64_t c = 0; c < C; ++c) {
    in.gamma[c] = c < 3 ? exact_gamma[c]
                        : static_cast<float>(rng.uniform(0.5, 1.5));
    float* plane = in.x.data() + c * M;
    if (c == C - 1) {
      // ±v pairs, then +0 at kEdge and −0 beside it: every running double
      // sum of a pair is +0, so the mean is +0.
      for (int64_t i = 0; i < M; i += 2) plane[i + 1] = -plane[i];
      plane[kEdge] = 0.0f;
      plane[kEdge + 1] = -0.0f;
    } else {
      for (int64_t i : kEdgeCopies) plane[i] = plane[kEdge];
    }
    for (int64_t n = 1; n < N; ++n) {
      std::memcpy(in.x.data() + (n * C + c) * M, plane, M * sizeof(float));
    }
  }
  // fl(γ·x̂) at kEdge, from the reference norm with β = 0.
  nn::InstanceNorm2d norm(C);
  *param(norm, "norm.gamma").value = in.gamma;
  const Tensor scaled = norm.forward(in.x);
  for (int64_t c = 0; c < C; ++c) in.beta[c] = -scaled[c * M + kEdge];
  return in;
}

TEST(ConvKernelsTest, NormReluPoolMaskAtTheReluEdge) {
  Rng rng(820);
  const BlockInput in = relu_edge_planes(rng);
  const int64_t C = in.x.dim(1), M = in.x.dim(2) * in.x.dim(3);
  // The edge is really there: the reference norm's output is exactly +0 at
  // every copy of kEdge in the exact channels, and −0 beside kEdge in the
  // last channel, in every sample.
  nn::InstanceNorm2d norm(C);
  *param(norm, "norm.gamma").value = in.gamma;
  *param(norm, "norm.beta").value = in.beta;
  const Tensor y = norm.forward(in.x);
  for (int64_t n = 0; n < in.x.dim(0); ++n) {
    for (int64_t c = 0; c < 3; ++c) {
      for (int64_t i : kEdgeCopies) {
        const float v = y[(n * C + c) * M + i];
        EXPECT_TRUE(v == 0.0f && !std::signbit(v)) << "c=" << c << " i=" << i;
      }
    }
    const float neg = y[(n * C + C - 1) * M + kEdge + 1];
    EXPECT_TRUE(neg == 0.0f && std::signbit(neg));
  }
  expect_block_matches_unfused(in);
}

// The forward caches x̂ and inv_std and nothing else activation-sized: after
// the tensor pool is emptied, a forward at a batch (and so a pool bucket)
// the block has not seen takes from the heap only those two and its output.
TEST(ConvKernelsTest, NormReluPoolForwardTakesOnlyXhatInvStdAndOutput) {
  const int64_t C = 4, H = 8, W = 8;
  Rng rng(830);
  nn::NormReluPool block(C);
  block.forward(random_tensor({4, C, H, W}, rng));
  block.backward(random_tensor({4, C, H / 2, W / 2}, rng));
  const Tensor x = random_tensor({8, C, H, W}, rng);
  detail::trim_tensor_pool();
  const core::MemStatsSnapshot before = core::memstats_this_thread();
  const Tensor y = block.forward(x);
  const int64_t grown =
      (core::memstats_this_thread() - before).tensor_heap_bytes;
  // Every size here is a power of two of at least the pool's 32-float
  // bucket, so each buffer takes exactly its own bytes.
  const int64_t xhat = x.numel(), inv_std = 8 * C, out = y.numel();
  EXPECT_LE(grown, (xhat + inv_std + out) * static_cast<int64_t>(sizeof(float)));
}

TEST(ConvKernelsTest, NormReluPoolRejectsMismatchedShapes) {
  nn::NormReluPool block(2);
  EXPECT_THROW(block.forward(Tensor({1, 3, 4, 4})), Error);
  EXPECT_THROW(block.forward(Tensor({1, 2, 3, 4})), Error);
  EXPECT_THROW(block.backward(Tensor({1, 2, 2, 2})), Error);
  block.forward(Tensor({3, 2, 4, 6}));
  EXPECT_THROW(block.backward(Tensor({1, 2, 2, 3})), Error);
  EXPECT_THROW(block.backward(Tensor({3, 2, 4, 6})), Error);
  EXPECT_NO_THROW(block.backward(Tensor({3, 2, 2, 3})));
}

// ---- Conv2d ------------------------------------------------------------------

TEST(ConvKernelsTest, Conv2dWeightGradComesFromLastForward) {
  // forward(A), forward(B), backward(kParams) must give the dW of B alone —
  // with A both the same shape as B (padded buffer reused) and another batch
  // (buffer resized).
  Rng data(700);
  const Tensor b = random_tensor({2, 3, 6, 7}, data);
  const Tensor a_same = random_tensor(b.shape(), data);
  const Tensor a_other = random_tensor({3, 3, 6, 7}, data, 4.0);
  at_1_and_4_threads([&] {
    Rng init(701);
    nn::Conv2d fresh(3, 4, 3, 1, 1, init);
    const Tensor want_y = fresh.forward(b);
    const Tensor dy = random_tensor(want_y.shape(), data);
    fresh.zero_grad();
    fresh.backward(dy, nn::GradNeed::kParams);
    const Tensor want_dw = *param(fresh, "conv.weight").grad;
    const Tensor want_db = *param(fresh, "conv.bias").grad;

    // The forward output itself: W·im2col(B) plus bias, as before.
    Tensor cols, mat;
    const Conv2dGeometry g{3, 6, 7, 3, 3, 1, 1};
    im2col_into(b, g, cols);
    matmul_into(*param(fresh, "conv.weight").value, cols, mat);
    for (int64_t n = 0; n < 2; ++n)
      for (int64_t oc = 0; oc < 4; ++oc)
        for (int64_t i = 0; i < 42; ++i)
          EXPECT_EQ(want_y[(n * 4 + oc) * 42 + i],
                    mat.at2(oc, n * 42 + i) + (*param(fresh, "conv.bias").value)[oc]);

    for (const Tensor* a : {&a_same, &a_other}) {
      Rng same_init(701);
      nn::Conv2d conv(3, 4, 3, 1, 1, same_init);
      conv.forward(*a);
      EXPECT_TRUE(same_bytes(conv.forward(b), want_y));
      conv.zero_grad();
      conv.backward(dy, nn::GradNeed::kParams);
      EXPECT_TRUE(same_bytes(*param(conv, "conv.weight").grad, want_dw));
      EXPECT_TRUE(same_bytes(*param(conv, "conv.bias").grad, want_db));
    }
  });
}

}  // namespace
}  // namespace deco
