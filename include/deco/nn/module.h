// Neural-network module interface with explicit manual backpropagation.
//
// Dataset condensation needs three gradient flavors from one machinery:
//   * parameter gradients  (for g_real / g_syn in gradient matching),
//   * input gradients      (to update the synthetic images themselves),
//   * the ability to perturb all parameters by a structured direction
//     (the θ± = θ ± ε·∇D finite-difference trick of Eq. 7).
// A general autograd tape is unnecessary for a fixed feed-forward topology, so
// each layer implements forward(x) (caching what backward needs) and
// backward(dL/dy) → dL/dx while accumulating dL/dparam into its grad buffers.
// A caller that reads only one of the two names it (GradNeed), and layers
// skip the work nobody reads.
#pragma once

#include <string>
#include <vector>

#include "deco/tensor/rng.h"
#include "deco/tensor/tensor.h"

namespace deco::nn {

/// The gradients a backward() caller reads. Whatever a layer does compute is
/// bitwise identical to the kAll result; it only skips the rest.
enum class GradNeed {
  kAll,     ///< dL/dx and parameter gradients.
  kInput,   ///< dL/dx only; parameter gradients are left untouched.
  kParams,  ///< parameter gradients only; the returned tensor is unspecified
            ///< (layers that can skip dL/dx return an empty tensor).
};

/// Non-owning handle to one learnable parameter tensor and its gradient
/// accumulator. `value` and `grad` always have identical shapes.
struct ParamRef {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Computes the layer output, caching activations needed by backward().
  virtual Tensor forward(const Tensor& input) = 0;

  /// Propagates `grad_output` (dL/dy) to dL/dx, accumulating parameter
  /// gradients along the way, restricted to what `need` names. Must be called
  /// after a matching forward().
  virtual Tensor backward(const Tensor& grad_output,
                          GradNeed need = GradNeed::kAll) = 0;

  /// Appends this module's parameters (if any) to `out`.
  virtual void collect_params(std::vector<ParamRef>& out) { (void)out; }

  /// Re-draws all parameters from the module's initialization distribution.
  /// Used by condensation to sample the fresh random model θ̃ each iteration.
  virtual void reinitialize(Rng& rng) { (void)rng; }

  /// Human-readable layer name for diagnostics.
  virtual std::string name() const = 0;

  /// Convenience: all parameters of this module (and children).
  std::vector<ParamRef> parameters();

  /// Zeroes every gradient accumulator.
  void zero_grad();

  /// Total number of learnable scalars.
  int64_t num_params();
};

/// Deep-copies parameter values from `src` to `dst`; both must expose
/// structurally identical parameter lists.
void copy_params(Module& src, Module& dst);

}  // namespace deco::nn
