#include <cmath>

#include "deco/core/thread_pool.h"
#include "deco/nn/layers.h"
#include "deco/tensor/check.h"

namespace deco::nn {

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t padding, Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_({out_channels, in_channels * kernel * kernel}),
      bias_({out_channels}),
      weight_grad_({out_channels, in_channels * kernel * kernel}),
      bias_grad_({out_channels}) {
  reinitialize(rng);
}

void Conv2d::reinitialize(Rng& rng) {
  // Kaiming-normal for ReLU networks: std = sqrt(2 / fan_in).
  const double fan_in = static_cast<double>(in_channels_ * kernel_ * kernel_);
  rng.fill_normal(weight_, 0.0, std::sqrt(2.0 / fan_in));
  bias_.zero();
}

Tensor Conv2d::forward(const Tensor& input) {
  DECO_CHECK(input.ndim() == 4 && input.dim(1) == in_channels_,
             "Conv2d: expected NCHW input with " + std::to_string(in_channels_) +
                 " channels, got " + input.shape_str());
  geom_ = Conv2dGeometry{in_channels_, input.dim(2), input.dim(3),
                         kernel_,      kernel_,      stride_,
                         padding_};
  last_batch_ = input.dim(0);
  pad_into(input, geom_, padded_);

  // out_mat = W [out_ch, rows] x im2col(input) [rows, N*oh*ow], with the
  // GEMM packing its panels straight from padded_: no column matrix.
  conv_matmul_into(weight_, padded_, geom_, out_mat_);

  const int64_t oh = geom_.out_h(), ow = geom_.out_w();
  const int64_t per_sample = oh * ow;
  Tensor out({last_batch_, out_channels_, oh, ow});
  float* po = out.data();
  const float* pm = out_mat_.data();
  const float* pb = bias_.data();
  const int64_t total_cols = last_batch_ * per_sample;
  // out_mat is [out_ch, N*oh*ow] with sample-major columns; permute to NCHW.
  // Output channels write disjoint planes, so the split is deterministic.
  core::parallel_for(0, out_channels_, 1, [&](int64_t oc0, int64_t oc1) {
    for (int64_t oc = oc0; oc < oc1; ++oc) {
      const float* src = pm + oc * total_cols;
      const float b = pb[oc];
      for (int64_t n = 0; n < last_batch_; ++n) {
        float* dst = po + (n * out_channels_ + oc) * per_sample;
        const float* s = src + n * per_sample;
        for (int64_t i = 0; i < per_sample; ++i) dst[i] = s[i] + b;
      }
    }
  });
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output, GradNeed need) {
  const int64_t oh = geom_.out_h(), ow = geom_.out_w();
  DECO_CHECK(grad_output.ndim() == 4 && grad_output.dim(0) == last_batch_ &&
                 grad_output.dim(1) == out_channels_ && grad_output.dim(2) == oh &&
                 grad_output.dim(3) == ow,
             "Conv2d::backward: grad " + grad_output.shape_str() +
                 " does not match forward output");
  const int64_t per_sample = oh * ow;
  const int64_t total_cols = last_batch_ * per_sample;
  const bool want_params = need != GradNeed::kInput;

  // Permute grad NCHW → [out_ch, N*oh*ow] to mirror the forward GEMM layout.
  if (grad_out_mat_.numel() != out_channels_ * total_cols) {
    grad_out_mat_ = Tensor({out_channels_, total_cols});
  } else {
    grad_out_mat_.reshape({out_channels_, total_cols});
  }
  const float* pg = grad_output.data();
  float* pm = grad_out_mat_.data();
  float* pbg = bias_grad_.data();
  // Per-channel: the permuted row and the bias-grad slot are private to oc,
  // and each channel's batch sum stays in the serial order.
  core::parallel_for(0, out_channels_, 1, [&](int64_t oc0, int64_t oc1) {
    for (int64_t oc = oc0; oc < oc1; ++oc) {
      float* dst = pm + oc * total_cols;
      double bacc = 0.0;
      for (int64_t n = 0; n < last_batch_; ++n) {
        const float* src = pg + (n * out_channels_ + oc) * per_sample;
        float* d = dst + n * per_sample;
        for (int64_t i = 0; i < per_sample; ++i) {
          d[i] = src[i];
          bacc += src[i];
        }
      }
      if (want_params) pbg[oc] += static_cast<float>(bacc);
    }
  });

  if (want_params) {
    // dW += grad_mat [out_ch, cols] x im2col(input)^T [cols, rows], folded
    // straight into the accumulator, with the GEMM packing its transposed
    // panels from the forward's padded_: no column matrix, no dw temporary.
    conv_matmul_nt_acc_into(grad_out_mat_, padded_, geom_, weight_grad_);
  }
  if (need == GradNeed::kParams) return Tensor();

  // dcols = W^T [rows, out_ch] x grad_mat [out_ch, cols]
  matmul_tn_into(weight_, grad_out_mat_, grad_cols_);

  Tensor grad_input({last_batch_, in_channels_, geom_.in_h, geom_.in_w});
  col2im_into(grad_cols_, geom_, grad_input);
  return grad_input;
}

void Conv2d::collect_params(std::vector<ParamRef>& out) {
  out.push_back({"conv.weight", &weight_, &weight_grad_});
  out.push_back({"conv.bias", &bias_, &bias_grad_});
}

}  // namespace deco::nn
