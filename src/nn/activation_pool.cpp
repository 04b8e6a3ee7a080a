#include <vector>

#include "deco/core/thread_pool.h"
#include "deco/nn/layers.h"
#include "deco/tensor/check.h"

namespace deco::nn {

// ---- ReLU -------------------------------------------------------------------

Tensor ReLU::forward(const Tensor& input) {
  if (!mask_.same_shape(input)) mask_ = Tensor(input.shape());
  Tensor out(input.shape());
  const float* pi = input.data();
  float* po = out.data();
  float* pm = mask_.data();
  // One pass: NaN and −0 fail the test, so both come out +0.
  core::parallel_for(0, out.numel(), int64_t{1} << 16,
                     [&](int64_t i0, int64_t i1) {
                       for (int64_t i = i0; i < i1; ++i) {
                         const float v = pi[i];
                         const bool pos = v > 0.0f;
                         pm[i] = pos ? 1.0f : 0.0f;
                         po[i] = pos ? v : 0.0f;
                       }
                     });
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output, GradNeed /*need*/) {
  DECO_CHECK(grad_output.shape() == mask_.shape(),
             "ReLU::backward: grad " + grad_output.shape_str() +
                 " does not match forward output " + mask_.shape_str());
  Tensor grad = grad_output;
  grad.mul_(mask_);
  return grad;
}

// ---- AvgPool2d ---------------------------------------------------------------

// Planes per parallel chunk: one 8×8 plane is far too little work to be
// worth a dispatch of its own.
constexpr int64_t kPoolGrain = 8;

Tensor AvgPool2d::forward(const Tensor& input) {
  DECO_CHECK(input.ndim() == 4, "AvgPool2d: input must be NCHW");
  const int64_t N = input.dim(0), C = input.dim(1), H = input.dim(2),
                W = input.dim(3);
  DECO_CHECK(H % kernel_ == 0 && W % kernel_ == 0,
             "AvgPool2d: spatial dims " + input.shape_str() +
                 " not divisible by kernel " + std::to_string(kernel_));
  in_shape_ = input.shape();
  const int64_t oh = H / kernel_, ow = W / kernel_;
  Tensor out({N, C, oh, ow});
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  const float* pi = input.data();
  float* po = out.data();
  // Each (n, c) plane is pooled independently: disjoint reads and writes.
  core::parallel_for(0, N * C, kPoolGrain, [&](int64_t nc0, int64_t nc1) {
    for (int64_t nc = nc0; nc < nc1; ++nc) {
      const float* img = pi + nc * H * W;
      float* dst = po + nc * oh * ow;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          double acc = 0.0;
          for (int64_t ky = 0; ky < kernel_; ++ky) {
            const float* rowp = img + (oy * kernel_ + ky) * W + ox * kernel_;
            for (int64_t kx = 0; kx < kernel_; ++kx) acc += rowp[kx];
          }
          dst[oy * ow + ox] = static_cast<float>(acc) * inv;
        }
      }
    }
  });
  return out;
}

Tensor AvgPool2d::backward(const Tensor& grad_output, GradNeed /*need*/) {
  DECO_CHECK(!in_shape_.empty(), "AvgPool2d::backward without forward");
  const int64_t N = in_shape_[0], C = in_shape_[1], H = in_shape_[2],
                W = in_shape_[3];
  const int64_t oh = H / kernel_, ow = W / kernel_;
  DECO_CHECK(grad_output.shape() == std::vector<int64_t>({N, C, oh, ow}),
             "AvgPool2d::backward: grad " + grad_output.shape_str() +
                 " does not match forward output");
  Tensor grad_input(in_shape_);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  const float* pg = grad_output.data();
  float* pi = grad_input.data();
  // Pooling windows never straddle planes, so per-plane scatter is disjoint.
  core::parallel_for(0, N * C, kPoolGrain, [&](int64_t nc0, int64_t nc1) {
    for (int64_t nc = nc0; nc < nc1; ++nc) {
      float* img = pi + nc * H * W;
      const float* src = pg + nc * oh * ow;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          const float g = src[oy * ow + ox] * inv;
          for (int64_t ky = 0; ky < kernel_; ++ky) {
            float* rowp = img + (oy * kernel_ + ky) * W + ox * kernel_;
            for (int64_t kx = 0; kx < kernel_; ++kx) rowp[kx] += g;
          }
        }
      }
    }
  });
  return grad_input;
}

// ---- Flatten ------------------------------------------------------------------

Tensor Flatten::forward(const Tensor& input) {
  DECO_CHECK(input.ndim() >= 2, "Flatten: input must have a batch axis");
  in_shape_ = input.shape();
  int64_t per = 1;
  for (int64_t d = 1; d < input.ndim(); ++d) per *= input.dim(d);
  return input.reshaped({input.dim(0), per});
}

Tensor Flatten::backward(const Tensor& grad_output, GradNeed /*need*/) {
  DECO_CHECK(!in_shape_.empty(), "Flatten::backward without forward");
  return grad_output.reshaped(in_shape_);
}

}  // namespace deco::nn
