#include <cmath>
#include <cstring>
#include <type_traits>
#include <vector>

#include "deco/core/thread_pool.h"
#include "deco/core/workspace.h"
#include "deco/nn/layers.h"
#include "deco/tensor/check.h"

namespace deco::nn {

namespace {

constexpr int64_t kPlaneBlock = 8;

// A block's kPlaneBlock planes side by side, one per vector lane (GCC/Clang
// vector extensions: elementwise IEEE arithmetic, lowered to the target's
// SIMD). Lane b of every operation rounds exactly as the scalar expression
// does for plane b, and a one-plane tail runs the same code on scalars.
static_assert(kPlaneBlock == 8, "transpose8 relays 8-plane blocks");
using F8 = float __attribute__((vector_size(kPlaneBlock * sizeof(float))));
using D8 = double __attribute__((vector_size(kPlaneBlock * sizeof(double))));
template <int64_t B>
using LaneF = std::conditional_t<B == 1, float, F8>;
template <int64_t B>
using LaneD = std::conditional_t<B == 1, double, D8>;

// The helpers below return these vectors by value. They are inline and
// local to this file, so GCC's psABI warning about that on targets without
// AVX or AVX-512 concerns no real call boundary.
#pragma GCC diagnostic ignored "-Wpsabi"

template <int64_t B>
LaneF<B> load(const float* p) {
  LaneF<B> v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
template <int64_t B>
void store(float* p, const LaneF<B>& v) {
  std::memcpy(p, &v, sizeof v);
}
inline double widen(float v) { return v; }
inline D8 widen(const F8& v) { return __builtin_convertvector(v, D8); }
template <typename V>
auto lane(const V& v, int64_t b) {
  if constexpr (std::is_arithmetic_v<V>) {
    return v;
  } else {
    return v[b];
  }
}
// Per-channel values (γ or β) of planes nc0 … nc0 + B − 1, one per lane.
template <int64_t B>
LaneF<B> channel_lanes(const float* param, int64_t nc0, int64_t channels) {
  float v[B];
  for (int64_t b = 0; b < B; ++b) v[b] = param[(nc0 + b) % channels];
  return load<B>(v);
}

// γ·x̂ + β, the value ReLU tests. NormReluPool's forward and the mask its
// backward recomputes from x̂ both evaluate it here, so they round — and
// contract into an FMA or not — alike.
template <typename T>
T affine(const T& gamma, const T& xhat, const T& beta) {
  return gamma * xhat + beta;
}

// Transposes the 8×8 tile whose row b is r[b]: afterwards r[j] holds element
// j of every former row. Three rounds of two-input shuffles.
inline void transpose8(F8 (&r)[8]) {
  F8 t[8], u[8];
  for (int k = 0; k < 8; k += 2) {
    t[k] = __builtin_shufflevector(r[k], r[k + 1], 0, 8, 1, 9, 4, 12, 5, 13);
    t[k + 1] =
        __builtin_shufflevector(r[k], r[k + 1], 2, 10, 3, 11, 6, 14, 7, 15);
  }
  for (int k = 0; k < 8; k += 4) {
    for (int h = 0; h < 2; ++h) {
      u[k + 2 * h] = __builtin_shufflevector(t[k + h], t[k + h + 2], 0, 1, 8,
                                             9, 4, 5, 12, 13);
      u[k + 2 * h + 1] = __builtin_shufflevector(t[k + h], t[k + h + 2], 2, 3,
                                                 10, 11, 6, 7, 14, 15);
    }
  }
  for (int k = 0; k < 4; ++k) {
    r[k] = __builtin_shufflevector(u[k], u[k + 4], 0, 1, 2, 3, 8, 9, 10, 11);
    r[k + 4] =
        __builtin_shufflevector(u[k], u[k + 4], 4, 5, 6, 7, 12, 13, 14, 15);
  }
}

// Relays a block of 8 planes of n floats from `src` to `dst`, where element
// i of plane b sits at b·n + i in the plane layout and at i·8 + b in the
// lane layout: 8×8 tiles through transpose8, the last n mod 8 elements one
// by one. ToLanes picks the direction.
template <bool ToLanes>
void relayout_block(const float* src, float* dst, int64_t n) {
  auto plane_at = [n](int64_t b, int64_t i) { return b * n + i; };
  auto lane_at = [](int64_t b, int64_t i) { return i * 8 + b; };
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    F8 r[8];
    for (int64_t k = 0; k < 8; ++k) {
      r[k] = load<8>(src + (ToLanes ? plane_at(k, i) : lane_at(0, i + k)));
    }
    transpose8(r);
    for (int64_t k = 0; k < 8; ++k) {
      store<8>(dst + (ToLanes ? lane_at(0, i + k) : plane_at(k, i)), r[k]);
    }
  }
  for (; i < n; ++i) {
    for (int64_t b = 0; b < 8; ++b) {
      dst[ToLanes ? lane_at(b, i) : plane_at(b, i)] =
          src[ToLanes ? plane_at(b, i) : lane_at(b, i)];
    }
  }
}

// Relays the B planes of n floats at `src` into the lane layout at `dst`
// (a copy when B is 1).
template <int64_t B>
void planes_to_lanes(const float* src, int64_t n, float* dst) {
  if constexpr (B == 1) {
    std::memcpy(dst, src, static_cast<size_t>(n) * sizeof(float));
  } else {
    relayout_block</*ToLanes=*/true>(src, dst, n);
  }
}

// The B planes of n floats at `src` in the lane layout, for reading: relaid
// into `scratch`, or `src` itself when B is 1.
template <int64_t B>
const float* planes_in_lanes(const float* src, int64_t n,
                             core::Workspace::Scope& scratch) {
  if constexpr (B == 1) return src;
  float* t = scratch.alloc_floats(B * n);
  planes_to_lanes<B>(src, n, t);
  return t;
}

// Relays B planes of n floats in the lane layout to `dst` (nothing to do
// when B is 1: the lanes are the plane).
template <int64_t B>
void lanes_to_planes(const float* lanes, int64_t n, float* dst) {
  if constexpr (B > 1) relayout_block</*ToLanes=*/false>(lanes, dst, n);
}

// Normalizes B consecutive (n, c) planes of `in` starting at plane nc0:
// stores each plane's inv_std and hands write(nc, x, mu, inv) its input,
// float mean and inv_std. The statistics run in the lanes, each lane
// keeping its plane's own double mean/var sums in ascending element order,
// so every plane's statistics are exactly what a one-plane loop computes.
template <int64_t B, typename Write>
void normalize_planes(const float* in, int64_t nc0, int64_t M, float eps,
                      float* inv_std, const Write& write) {
  const float* src = in + nc0 * M;
  core::Workspace::Scope scratch;
  const float* xl = planes_in_lanes<B>(src, M, scratch);
  LaneD<B> mean = {};
  for (int64_t i = 0; i < M; ++i) mean += widen(load<B>(xl + i * B));
  mean /= static_cast<double>(M);
  LaneD<B> var = {};
  for (int64_t i = 0; i < M; ++i) {
    const LaneD<B> d = widen(load<B>(xl + i * B)) - mean;
    var += d * d;
  }
  for (int64_t b = 0; b < B; ++b) {
    const int64_t nc = nc0 + b;
    const double v = lane(var, b) / static_cast<double>(M);
    const float inv = static_cast<float>(1.0 / std::sqrt(v + eps));
    inv_std[nc] = inv;
    write(nc, src + b * M, static_cast<float>(lane(mean, b)), inv);
  }
}

// Phase 1 of the InstanceNorm backward over B consecutive planes, with dy
// and x̂ in the lane layout (`dl`, `xl`): each plane's ascending double sums
// of dy and dy·x̂, one lane per plane, stored for the serial γ/β fold; then
// dx when asked for, computed in the lanes over dl (straight into dx when
// B is 1) and relaid plane after plane.
struct NormGradPlanes {
  const float* inv_std;
  const float* gamma;
  float* dx;
  double* sum_dy;     // [planes], or null when no parameter grads are wanted
  double* sum_dy_xh;  // likewise
  int64_t M;
  int64_t channels;
  bool want_input;

  template <int64_t B>
  void run(int64_t nc0, float* dl, const float* xl) const {
    LaneD<B> s_dy = {}, s_dy_xh = {};
    for (int64_t i = 0; i < M; ++i) {
      const LaneD<B> d = widen(load<B>(dl + i * B));
      s_dy += d;
      s_dy_xh += d * widen(load<B>(xl + i * B));
    }
    if (sum_dy != nullptr) {
      for (int64_t b = 0; b < B; ++b) {
        sum_dy[nc0 + b] = lane(s_dy, b);
        sum_dy_xh[nc0 + b] = lane(s_dy_xh, b);
      }
    }
    if (!want_input) return;
    float g_inv[B], mean_dy[B], mean_dy_xh[B];
    for (int64_t b = 0; b < B; ++b) {
      const int64_t nc = nc0 + b;
      g_inv[b] = gamma[nc % channels] * inv_std[nc];
      mean_dy[b] = static_cast<float>(lane(s_dy, b) / M);
      mean_dy_xh[b] = static_cast<float>(lane(s_dy_xh, b) / M);
    }
    const LaneF<B> gi = load<B>(g_inv), mdy = load<B>(mean_dy),
                   mdxh = load<B>(mean_dy_xh);
    float* dxl = B == 1 ? dx + nc0 * M : dl;
    // dx = γ·inv_std·(dy − mean(dy) − x̂·mean(dy·x̂))
    for (int64_t i = 0; i < M; ++i) {
      store<B>(dxl + i * B,
               gi * (load<B>(dl + i * B) - mdy - load<B>(xl + i * B) * mdxh));
    }
    lanes_to_planes<B>(dxl, M, dx + nc0 * M);
  }
};

// Calls body(block, nc) for every whole kPlaneBlock block of a parallel
// chunk and body(one, nc) for the rest, where `block` / `one` are
// std::integral_constant plane counts. Chunks are whole blocks except the
// last, so only the last few planes run one at a time. Planes write
// disjoint outputs, so the split is bitwise deterministic.
template <typename Body>
void for_each_plane_block(int64_t planes, const Body& body) {
  core::parallel_for(0, planes, kPlaneBlock, [&](int64_t nc0, int64_t nc1) {
    int64_t nc = nc0;
    for (; nc + kPlaneBlock <= nc1; nc += kPlaneBlock) {
      body(std::integral_constant<int64_t, kPlaneBlock>{}, nc);
    }
    for (; nc < nc1; ++nc) body(std::integral_constant<int64_t, 1>{}, nc);
  });
}

// AvgPool2d(2)'s 1 / (2·2), computed as AvgPool2d computes it.
constexpr float kPoolScale = 1.0f / 4.0f;

}  // namespace

InstanceNorm2d::InstanceNorm2d(int64_t channels, float eps)
    : channels_(channels),
      eps_(eps),
      gamma_({channels}),
      beta_({channels}),
      gamma_grad_({channels}),
      beta_grad_({channels}) {
  gamma_.fill(1.0f);
  beta_.zero();
}

void InstanceNorm2d::reinitialize(Rng& rng) {
  (void)rng;  // affine params restart at identity, as in standard norm layers
  gamma_.fill(1.0f);
  beta_.zero();
}

Tensor InstanceNorm2d::forward(const Tensor& input) {
  DECO_CHECK(input.ndim() == 4 && input.dim(1) == channels_,
             "InstanceNorm2d: expected NCHW with " + std::to_string(channels_) +
                 " channels, got " + input.shape_str());
  in_shape_ = input.shape();
  const int64_t N = input.dim(0), H = input.dim(2), W = input.dim(3);
  const int64_t M = H * W;
  DECO_CHECK(M > 1, "InstanceNorm2d needs more than one spatial element");

  if (!xhat_.same_shape(input)) xhat_ = Tensor(input.shape());
  if (inv_std_.numel() != N * channels_) inv_std_ = Tensor({N * channels_});

  Tensor out(input.shape());
  const float* pi = input.data();
  float* pxh = xhat_.data();
  float* pinv = inv_std_.data();
  float* po = out.data();
  const float* pg = gamma_.data();
  const float* pb = beta_.data();
  // Every (n, c) plane is normalized independently: disjoint writes, so the
  // batch-parallel split is bitwise deterministic.
  for_each_plane_block(N * channels_, [&](auto block, int64_t nc0) {
    normalize_planes<decltype(block)::value>(
        pi, nc0, M, eps_, pinv,
        [&](int64_t nc, const float* x, float mu, float inv) {
          float* xh = pxh + nc * M;
          float* dst = po + nc * M;
          const float g = pg[nc % channels_], bt = pb[nc % channels_];
          for (int64_t i = 0; i < M; ++i) {
            xh[i] = (x[i] - mu) * inv;
            dst[i] = g * xh[i] + bt;
          }
        });
  });
  return out;
}

Tensor InstanceNorm2d::backward(const Tensor& grad_output, GradNeed need) {
  DECO_CHECK(!in_shape_.empty(), "InstanceNorm2d::backward without forward");
  DECO_CHECK(grad_output.shape() == in_shape_,
             "InstanceNorm2d::backward: grad shape mismatch");
  const float* pdy = grad_output.data();
  const int64_t M = in_shape_[2] * in_shape_[3];
  return backward_planes(need, [&](auto block, int64_t nc0, const float*,
                                   core::Workspace::Scope& scratch) {
    constexpr int64_t B = decltype(block)::value;
    float* dl = scratch.alloc_floats(B * M);
    planes_to_lanes<B>(pdy + nc0 * M, M, dl);
    return dl;
  });
}

template <typename DyOf>
Tensor InstanceNorm2d::backward_planes(GradNeed need, const DyOf& dy_of) {
  const int64_t M = in_shape_[2] * in_shape_[3];
  const bool want_input = need != GradNeed::kParams;
  const bool want_params = need != GradNeed::kInput;
  Tensor grad_input = want_input ? Tensor(in_shape_) : Tensor();
  // Phase 1 (parallel): per-plane sums and dx — all writes are plane-local.
  // Phase 2 (serial, ascending nc): fold the per-plane sums into the shared
  // γ/β gradients in the fixed serial order, keeping the reduction bitwise
  // identical for every thread count.
  const int64_t planes = in_shape_[0] * channels_;
  const size_t sums = want_params ? static_cast<size_t>(planes) : 0;
  std::vector<double> sum_dy(sums), sum_dy_xh(sums);
  const NormGradPlanes grads{inv_std_.data(),
                             gamma_.data(),
                             grad_input.data(),
                             want_params ? sum_dy.data() : nullptr,
                             want_params ? sum_dy_xh.data() : nullptr,
                             M,
                             channels_,
                             want_input};
  const float* pxh = xhat_.data();
  for_each_plane_block(planes, [&](auto block, int64_t nc0) {
    constexpr int64_t B = decltype(block)::value;
    core::Workspace::Scope scratch;
    const float* xl = planes_in_lanes<B>(pxh + nc0 * M, M, scratch);
    grads.run<B>(nc0, dy_of(block, nc0, xl, scratch), xl);
  });
  for (size_t nc = 0; nc < sums; ++nc) {
    const int64_t c = static_cast<int64_t>(nc) % channels_;
    beta_grad_[c] += static_cast<float>(sum_dy[nc]);
    gamma_grad_[c] += static_cast<float>(sum_dy_xh[nc]);
  }
  return grad_input;
}

void InstanceNorm2d::collect_params(std::vector<ParamRef>& out) {
  out.push_back({"norm.gamma", &gamma_, &gamma_grad_});
  out.push_back({"norm.beta", &beta_, &beta_grad_});
}

// ---- NormReluPool ------------------------------------------------------------

Tensor NormReluPool::forward(const Tensor& input) {
  DECO_CHECK(input.ndim() == 4 && input.dim(1) == channels_,
             "NormReluPool: expected NCHW with " + std::to_string(channels_) +
                 " channels, got " + input.shape_str());
  const int64_t N = input.dim(0), H = input.dim(2), W = input.dim(3);
  DECO_CHECK(H > 0 && W > 0 && H % 2 == 0 && W % 2 == 0,
             "NormReluPool: spatial dims " + input.shape_str() +
                 " do not halve cleanly");
  in_shape_ = input.shape();
  const int64_t M = H * W, oh = H / 2, ow = W / 2;

  if (!xhat_.same_shape(input)) xhat_ = Tensor(input.shape());
  if (inv_std_.numel() != N * channels_) inv_std_ = Tensor({N * channels_});

  Tensor out({N, channels_, oh, ow});
  const float* pi = input.data();
  float* pxh = xhat_.data();
  float* pinv = inv_std_.data();
  float* po = out.data();
  const float* pg = gamma_.data();
  const float* pb = beta_.data();
  // Per plane: InstanceNorm2d's x̂ and γ·x̂ + β, ReLU's output (only in
  // plane-sized scratch), then AvgPool2d(2)'s 0.0 + the four taps row by
  // row, in double — each layer's own arithmetic. Only x̂ is kept: backward
  // recomputes the ReLU mask from it.
  for_each_plane_block(N * channels_, [&](auto block, int64_t nc0) {
    core::Workspace::Scope scratch;
    float* relu = scratch.alloc_floats(M);
    normalize_planes<decltype(block)::value>(
        pi, nc0, M, eps_, pinv,
        [&](int64_t nc, const float* x, float mu, float inv) {
          float* xh = pxh + nc * M;
          const float g = pg[nc % channels_], bt = pb[nc % channels_];
          for (int64_t i = 0; i < M; ++i) {
            xh[i] = (x[i] - mu) * inv;
            const float y = affine(g, xh[i], bt);
            relu[i] = y > 0.0f ? y : 0.0f;
          }
          float* dst = po + nc * oh * ow;
          for (int64_t oy = 0; oy < oh; ++oy) {
            const float* r0 = relu + 2 * oy * W;
            const float* r1 = r0 + W;
            float* d = dst + oy * ow;
            for (int64_t ox = 0; ox < ow; ++ox) {
              const double acc = 0.0 + r0[2 * ox] + r0[2 * ox + 1] +
                                 r1[2 * ox] + r1[2 * ox + 1];
              d[ox] = static_cast<float>(acc) * kPoolScale;
            }
          }
        });
  });
  return out;
}

Tensor NormReluPool::backward(const Tensor& grad_output, GradNeed need) {
  DECO_CHECK(!in_shape_.empty(), "NormReluPool::backward without forward");
  const int64_t N = in_shape_[0], H = in_shape_[2], W = in_shape_[3];
  const int64_t M = H * W, oh = H / 2, ow = W / 2;
  DECO_CHECK(grad_output.shape() == std::vector<int64_t>({N, channels_, oh, ow}),
             "NormReluPool::backward: grad " + grad_output.shape_str() +
                 " does not match forward output");
  const float* pgrad = grad_output.data();
  // Each block forms its planes' dy in scratch, in the lanes: AvgPool2d's
  // zeroed gradient plus its share, times ReLU's mask. The mask is the
  // forward's test on γ·x̂ + β, recomputed from x̂ as the float ReLU
  // multiplies by.
  return backward_planes(need, [&](auto block, int64_t nc0, const float* xl,
                                   core::Workspace::Scope& scratch) {
    constexpr int64_t B = decltype(block)::value;
    const float* gl =
        planes_in_lanes<B>(pgrad + nc0 * oh * ow, oh * ow, scratch);
    const LaneF<B> g = channel_lanes<B>(gamma_.data(), nc0, channels_);
    const LaneF<B> bt = channel_lanes<B>(beta_.data(), nc0, channels_);
    const LaneF<B> one = LaneF<B>{} + 1.0f, zero = {};
    float* dy = scratch.alloc_floats(B * M);
    for (int64_t oy = 0; oy < oh; ++oy) {
      for (int64_t ox = 0; ox < ow; ++ox) {
        const LaneF<B> share =
            0.0f + load<B>(gl + (oy * ow + ox) * B) * kPoolScale;
        const int64_t i0 = 2 * oy * W + 2 * ox;
        for (int64_t i : {i0, i0 + 1, i0 + W, i0 + W + 1}) {
          const LaneF<B> y = affine(g, load<B>(xl + i * B), bt);
          store<B>(dy + i * B, share * (y > 0.0f ? one : zero));
        }
      }
    }
    return dy;
  });
}

}  // namespace deco::nn
