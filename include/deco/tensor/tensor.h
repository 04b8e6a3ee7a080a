// Dense float tensor with value semantics.
//
// This is the storage substrate for the whole library. Design goals, in order:
//   1. Correctness and debuggability: every shape mismatch throws with a
//      readable message (see DECO_CHECK in check.h).
//   2. Predictable performance on a single CPU core: contiguous row-major
//      storage, no views/strides, no hidden allocation in hot loops (callers
//      reuse output tensors via the *_into variants in ops.h).
//   3. Small API surface: only what the NN / condensation layers need.
//
// Tensors are deep-copied on copy construction/assignment and cheaply moved.
// Rank is arbitrary but the library only uses ranks 1, 2 and 4 (NCHW).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "deco/tensor/buffer_pool.h"

namespace deco {

class Tensor {
 public:
  /// Empty tensor (numel() == 0, ndim() == 0).
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<int64_t> shape);
  Tensor(std::initializer_list<int64_t> shape);

  /// Tensor of the given shape holding a copy of `values` (size must match).
  Tensor(std::vector<int64_t> shape, const std::vector<float>& values);

  // ---- factories -----------------------------------------------------------
  static Tensor zeros(std::vector<int64_t> shape);
  static Tensor full(std::vector<int64_t> shape, float value);

  // ---- shape ---------------------------------------------------------------
  const std::vector<int64_t>& shape() const { return shape_; }
  int64_t ndim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t dim(int64_t i) const;
  int64_t numel() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  /// Returns a tensor sharing no storage with this one but holding the same
  /// values under a new shape. numel must be preserved.
  Tensor reshaped(std::vector<int64_t> shape) const;
  /// In-place metadata-only reshape. numel must be preserved.
  void reshape(std::vector<int64_t> shape);

  // ---- element access ------------------------------------------------------
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& operator[](int64_t i) { return data_.data()[i]; }
  float operator[](int64_t i) const { return data_.data()[i]; }

  /// 2-D indexed access (row-major). Bounds-checked in debug builds only.
  float& at2(int64_t r, int64_t c);
  float at2(int64_t r, int64_t c) const;
  /// 4-D (NCHW) indexed access.
  float& at4(int64_t n, int64_t c, int64_t h, int64_t w);
  float at4(int64_t n, int64_t c, int64_t h, int64_t w) const;

  // ---- in-place arithmetic -------------------------------------------------
  Tensor& fill(float value);
  Tensor& zero() { return fill(0.0f); }
  Tensor& add_(const Tensor& other);              ///< this += other
  Tensor& sub_(const Tensor& other);              ///< this -= other
  Tensor& mul_(const Tensor& other);              ///< this *= other (elementwise)
  Tensor& add_scaled_(const Tensor& other, float alpha);  ///< this += alpha*other
  Tensor& scale_(float alpha);                    ///< this *= alpha
  Tensor& add_scalar_(float alpha);               ///< this += alpha
  Tensor& clamp_(float lo, float hi);

  // ---- out-of-place arithmetic --------------------------------------------
  Tensor operator+(const Tensor& other) const;
  Tensor operator-(const Tensor& other) const;
  Tensor operator*(float alpha) const;

  // ---- reductions ----------------------------------------------------------
  float sum() const;
  float mean() const;
  float min() const;
  float max() const;
  /// Euclidean norm of the flattened tensor.
  float norm() const;
  /// Squared Euclidean norm.
  float squared_norm() const;
  /// Index of the maximum element in the flattened tensor.
  int64_t argmax() const;

  /// Sum of |a_i - b_i| — useful in tests.
  float l1_distance(const Tensor& other) const;

  std::string shape_str() const;

 private:
  std::vector<int64_t> shape_;
  detail::FloatStore data_;
};

/// Flat dot product of two same-numel tensors.
float dot(const Tensor& a, const Tensor& b);

}  // namespace deco
