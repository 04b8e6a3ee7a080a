#include "deco/tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>

#include "deco/tensor/check.h"

namespace deco {

namespace {
int64_t shape_numel(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    DECO_CHECK(d >= 0, "negative dimension");
    n *= d;
  }
  return shape.empty() ? 0 : n;
}
}  // namespace

Tensor::Tensor(std::vector<int64_t> shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_)) {}

Tensor::Tensor(std::initializer_list<int64_t> shape)
    : Tensor(std::vector<int64_t>(shape)) {}

Tensor::Tensor(std::vector<int64_t> shape, const std::vector<float>& values)
    : shape_(std::move(shape)) {
  DECO_CHECK(shape_numel(shape_) == static_cast<int64_t>(values.size()),
             "value count does not match shape " + shape_str());
  data_ = detail::FloatStore(static_cast<int64_t>(values.size()));
  if (!values.empty())
    std::memcpy(data_.data(), values.data(), values.size() * sizeof(float));
}

Tensor Tensor::zeros(std::vector<int64_t> shape) { return Tensor(std::move(shape)); }

Tensor Tensor::full(std::vector<int64_t> shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

int64_t Tensor::dim(int64_t i) const {
  DECO_CHECK(i >= 0 && i < ndim(), "dimension index out of range for " + shape_str());
  return shape_[static_cast<size_t>(i)];
}

Tensor Tensor::reshaped(std::vector<int64_t> shape) const {
  Tensor t = *this;
  t.reshape(std::move(shape));
  return t;
}

void Tensor::reshape(std::vector<int64_t> shape) {
  DECO_CHECK(shape_numel(shape) == numel(),
             "reshape from " + shape_str() + " changes element count");
  shape_ = std::move(shape);
}

float& Tensor::at2(int64_t r, int64_t c) {
  return data_.data()[r * shape_[1] + c];
}
float Tensor::at2(int64_t r, int64_t c) const {
  return data_.data()[r * shape_[1] + c];
}

float& Tensor::at4(int64_t n, int64_t c, int64_t h, int64_t w) {
  const int64_t C = shape_[1], H = shape_[2], W = shape_[3];
  return data_.data()[((n * C + c) * H + h) * W + w];
}
float Tensor::at4(int64_t n, int64_t c, int64_t h, int64_t w) const {
  const int64_t C = shape_[1], H = shape_[2], W = shape_[3];
  return data_.data()[((n * C + c) * H + h) * W + w];
}

Tensor& Tensor::fill(float value) {
  std::fill(data_.data(), data_.data() + data_.size(), value);
  return *this;
}

Tensor& Tensor::add_(const Tensor& other) {
  DECO_CHECK(numel() == other.numel(),
             "add_: numel mismatch " + shape_str() + " vs " + other.shape_str());
  const float* src = other.data();
  float* dst = data();
  for (int64_t i = 0, n = numel(); i < n; ++i) dst[i] += src[i];
  return *this;
}

Tensor& Tensor::sub_(const Tensor& other) {
  DECO_CHECK(numel() == other.numel(),
             "sub_: numel mismatch " + shape_str() + " vs " + other.shape_str());
  const float* src = other.data();
  float* dst = data();
  for (int64_t i = 0, n = numel(); i < n; ++i) dst[i] -= src[i];
  return *this;
}

Tensor& Tensor::mul_(const Tensor& other) {
  DECO_CHECK(numel() == other.numel(),
             "mul_: numel mismatch " + shape_str() + " vs " + other.shape_str());
  const float* src = other.data();
  float* dst = data();
  for (int64_t i = 0, n = numel(); i < n; ++i) dst[i] *= src[i];
  return *this;
}

Tensor& Tensor::add_scaled_(const Tensor& other, float alpha) {
  DECO_CHECK(numel() == other.numel(), "add_scaled_: numel mismatch "
                                       + shape_str() + " vs " + other.shape_str());
  const float* src = other.data();
  float* dst = data();
  for (int64_t i = 0, n = numel(); i < n; ++i) dst[i] += alpha * src[i];
  return *this;
}

Tensor& Tensor::scale_(float alpha) {
  float* p = data();
  for (int64_t i = 0, n = numel(); i < n; ++i) p[i] *= alpha;
  return *this;
}

Tensor& Tensor::add_scalar_(float alpha) {
  float* p = data();
  for (int64_t i = 0, n = numel(); i < n; ++i) p[i] += alpha;
  return *this;
}

Tensor& Tensor::clamp_(float lo, float hi) {
  float* p = data();
  for (int64_t i = 0, n = numel(); i < n; ++i)
    p[i] = std::min(hi, std::max(lo, p[i]));
  return *this;
}

Tensor Tensor::operator+(const Tensor& other) const {
  Tensor out = *this;
  out.add_(other);
  return out;
}

Tensor Tensor::operator-(const Tensor& other) const {
  Tensor out = *this;
  out.sub_(other);
  return out;
}

Tensor Tensor::operator*(float alpha) const {
  Tensor out = *this;
  out.scale_(alpha);
  return out;
}

float Tensor::sum() const {
  double acc = 0.0;
  const float* p = data();
  for (int64_t i = 0, n = numel(); i < n; ++i) acc += p[i];
  return static_cast<float>(acc);
}

float Tensor::mean() const {
  DECO_CHECK(numel() > 0, "mean of empty tensor");
  return sum() / static_cast<float>(numel());
}

float Tensor::min() const {
  DECO_CHECK(numel() > 0, "min of empty tensor");
  return *std::min_element(data(), data() + numel());
}

float Tensor::max() const {
  DECO_CHECK(numel() > 0, "max of empty tensor");
  return *std::max_element(data(), data() + numel());
}

float Tensor::norm() const { return std::sqrt(squared_norm()); }

float Tensor::squared_norm() const {
  double acc = 0.0;
  const float* p = data();
  for (int64_t i = 0, n = numel(); i < n; ++i)
    acc += static_cast<double>(p[i]) * p[i];
  return static_cast<float>(acc);
}

int64_t Tensor::argmax() const {
  DECO_CHECK(numel() > 0, "argmax of empty tensor");
  const float* p = data();
  return std::distance(p, std::max_element(p, p + numel()));
}

float Tensor::l1_distance(const Tensor& other) const {
  DECO_CHECK(numel() == other.numel(), "l1_distance: numel mismatch");
  double acc = 0.0;
  const float* pa = data();
  const float* pb = other.data();
  for (int64_t i = 0, n = numel(); i < n; ++i)
    acc += std::abs(static_cast<double>(pa[i]) - pb[i]);
  return static_cast<float>(acc);
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ", ";
    os << shape_[i];
  }
  os << "]";
  return os.str();
}

float dot(const Tensor& a, const Tensor& b) {
  DECO_CHECK(a.numel() == b.numel(), "dot: numel mismatch");
  double acc = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0, n = a.numel(); i < n; ++i)
    acc += static_cast<double>(pa[i]) * pb[i];
  return static_cast<float>(acc);
}

}  // namespace deco
