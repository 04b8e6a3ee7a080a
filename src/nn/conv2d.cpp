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

  // out = W [out_ch, rows] x im2col(input) [rows, N*oh*ow] + b, with the GEMM
  // packing its panels straight from padded_ and writing its tiles straight
  // into the NCHW output: no column matrix, no GEMM-layout output.
  Tensor out({last_batch_, out_channels_, geom_.out_h(), geom_.out_w()});
  conv_forward_into(weight_, bias_, padded_, geom_, out);
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output, GradNeed need) {
  const int64_t oh = geom_.out_h(), ow = geom_.out_w();
  DECO_CHECK(grad_output.ndim() == 4 && grad_output.dim(0) == last_batch_ &&
                 grad_output.dim(1) == out_channels_ && grad_output.dim(2) == oh &&
                 grad_output.dim(3) == ow,
             "Conv2d::backward: grad " + grad_output.shape_str() +
                 " does not match forward output");

  if (need != GradNeed::kInput) {
    // Bias grad: each channel's batch sum in the serial (n, pixel) order, in
    // double. Channels own their slots, so the split is deterministic.
    const int64_t per_sample = oh * ow;
    const float* pg = grad_output.data();
    float* pbg = bias_grad_.data();
    core::parallel_for(0, out_channels_, 1, [&](int64_t oc0, int64_t oc1) {
      for (int64_t oc = oc0; oc < oc1; ++oc) {
        double bacc = 0.0;
        for (int64_t n = 0; n < last_batch_; ++n) {
          const float* src = pg + (n * out_channels_ + oc) * per_sample;
          for (int64_t i = 0; i < per_sample; ++i) bacc += src[i];
        }
        pbg[oc] += static_cast<float>(bacc);
      }
    });
    // dW += dy [out_ch, cols] x im2col(input)^T [cols, rows], with dy read in
    // place from NCHW and the transposed panels packed from the forward's
    // padded_, folded straight into the accumulator.
    conv_weight_grad_acc_into(grad_output, padded_, geom_, weight_grad_);
  }
  if (need == GradNeed::kParams) return Tensor();

  // dX = col2im(W^T [rows, out_ch] x dy [out_ch, cols]), drained tile by
  // tile inside the GEMM: no column-gradient matrix.
  Tensor grad_input({last_batch_, in_channels_, geom_.in_h, geom_.in_w});
  conv_input_grad_into(weight_, grad_output, geom_, grad_input);
  return grad_input;
}

void Conv2d::collect_params(std::vector<ParamRef>& out) {
  out.push_back({"conv.weight", &weight_, &weight_grad_});
  out.push_back({"conv.bias", &bias_, &bias_grad_});
}

}  // namespace deco::nn
