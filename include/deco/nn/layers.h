// Concrete layers for the ConvNet backbone used throughout the paper:
// Conv2d, Linear, ReLU, AvgPool2d, InstanceNorm2d, NormReluPool
// (InstanceNorm2d → ReLU → AvgPool2d(2) fused) and Flatten. The ConvNet
// builds only Conv2d, NormReluPool, Flatten and Linear; ReLU, AvgPool2d and
// the standalone InstanceNorm2d are the unfused reference NormReluPool's
// bitwise tests compare against.
//
// All image tensors are NCHW. Layers cache exactly what their backward pass
// needs and reuse buffers across iterations to avoid per-step allocation.
// Conv2d, Linear, InstanceNorm2d and NormReluPool skip the gradients a
// GradNeed rules out; the parameter-free layers ignore it and always return
// dL/dx.
#pragma once

#include <cstdint>

#include "deco/nn/module.h"
#include "deco/tensor/ops.h"

namespace deco::nn {

/// 2-D convolution via pad + implicit im2col: the input is copied once
/// into a zero-bordered buffer, `padded_`, the only thing the layer holds
/// between forward and backward. The forward and dW GEMMs read `padded_` in
/// place through offset tables, with output channels in the vector lanes,
/// and pack only Wᵀ or dyᵀ; the forward writes the NCHW output (bias
/// included) directly. The dX GEMM reads dy in place and drains its product
/// through col2im one L2-sized tile at a time. No column matrix,
/// GEMM-layout output or permuted dy is ever built. Weight layout:
/// [out_ch, in_ch*kh*kw], bias: [out_ch].
class Conv2d : public Module {
 public:
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel, int64_t stride,
         int64_t padding, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output,
                  GradNeed need = GradNeed::kAll) override;
  void collect_params(std::vector<ParamRef>& out) override;
  void reinitialize(Rng& rng) override;
  std::string name() const override { return "Conv2d"; }

  int64_t out_channels() const { return out_channels_; }

 private:
  int64_t in_channels_;
  int64_t out_channels_;
  int64_t kernel_;
  int64_t stride_;
  int64_t padding_;

  Tensor weight_;       // [out_ch, in_ch*k*k]
  Tensor bias_;         // [out_ch]
  Tensor weight_grad_;
  Tensor bias_grad_;

  Conv2dGeometry geom_;  // of the last forward
  Tensor padded_;        // last input with its zero border: the only scratch
  int64_t last_batch_ = 0;
};

/// Fully connected layer. Weight: [out, in], bias: [out].
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output,
                  GradNeed need = GradNeed::kAll) override;
  void collect_params(std::vector<ParamRef>& out) override;
  void reinitialize(Rng& rng) override;
  std::string name() const override { return "Linear"; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Tensor weight_;
  Tensor bias_;
  Tensor weight_grad_;
  Tensor bias_grad_;
  Tensor input_;  // cached for backward
};

/// Elementwise rectifier.
class ReLU : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output,
                  GradNeed need = GradNeed::kAll) override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor mask_;  // 1 where input > 0
};

/// Non-overlapping average pooling (kernel == stride).
class AvgPool2d : public Module {
 public:
  explicit AvgPool2d(int64_t kernel) : kernel_(kernel) {}

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output,
                  GradNeed need = GradNeed::kAll) override;
  std::string name() const override { return "AvgPool2d"; }

 private:
  int64_t kernel_;
  std::vector<int64_t> in_shape_;
};

/// Instance normalization with learnable per-channel affine (γ, β), matching
/// the ConvNet of the dataset-condensation literature. Normalizes each (n, c)
/// plane to zero mean / unit variance.
class InstanceNorm2d : public Module {
 public:
  explicit InstanceNorm2d(int64_t channels, float eps = 1e-5f);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output,
                  GradNeed need = GradNeed::kAll) override;
  void collect_params(std::vector<ParamRef>& out) override;
  void reinitialize(Rng& rng) override;
  std::string name() const override { return "InstanceNorm2d"; }

 protected:
  /// The backward InstanceNorm2d and NormReluPool share, after their shape
  /// checks: dy_of(block, nc0, xl, scratch) returns the dy of planes
  /// [nc0, nc0 + block) in the block's Workspace scratch, planes in the
  /// vector lanes (element i of plane nc0 + b at i·block + b), given their
  /// x̂ laid out the same way in `xl`; the dx is computed over it in place.
  /// Defined in src/nn/norm.cpp, its only user.
  template <typename DyOf>
  Tensor backward_planes(GradNeed need, const DyOf& dy_of);

  int64_t channels_;
  float eps_;
  Tensor gamma_;       // [C]
  Tensor beta_;        // [C]
  Tensor gamma_grad_;
  Tensor beta_grad_;
  Tensor xhat_;        // normalized input, cached
  Tensor inv_std_;     // [N*C]
  std::vector<int64_t> in_shape_;
};

/// One ConvNet block tail as a single layer: InstanceNorm2d → ReLU →
/// AvgPool2d(2), run in one pass per plane. Forward keeps only x̂ and
/// inv_std, not the norm or ReLU outputs nor a mask; backward recomputes the
/// ReLU mask from x̂ with the forward's own γ·x̂ + β test and forms each
/// block's pooled, masked dy in scratch. The per-plane statistics (mean and
/// variance forward, Σdy and Σdy·x̂ backward) run 8 planes at a time, one per
/// vector lane. Every element keeps the three layers' arithmetic and
/// summation order, so outputs and gradients are bitwise those of the
/// unfused stack. Shares InstanceNorm2d's parameters, their names
/// (norm.gamma, norm.beta) and initialization.
class NormReluPool : public InstanceNorm2d {
 public:
  using InstanceNorm2d::InstanceNorm2d;

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output,
                  GradNeed need = GradNeed::kAll) override;
  std::string name() const override { return "NormReluPool"; }
};

/// Reshapes [N, C, H, W] to [N, C*H*W].
class Flatten : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output,
                  GradNeed need = GradNeed::kAll) override;
  std::string name() const override { return "Flatten"; }

 private:
  std::vector<int64_t> in_shape_;
};

}  // namespace deco::nn
