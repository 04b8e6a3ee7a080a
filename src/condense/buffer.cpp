#include "deco/condense/buffer.h"

#include <algorithm>
#include <cmath>

#include "deco/tensor/check.h"
#include "deco/tensor/ops.h"

namespace deco::condense {

SyntheticBuffer::SyntheticBuffer(int64_t num_classes, int64_t ipc,
                                 int64_t channels, int64_t height, int64_t width)
    : num_classes_(num_classes),
      ipc_(ipc),
      channels_(channels),
      height_(height),
      width_(width),
      images_({num_classes * ipc, channels, height, width}),
      grads_({num_classes * ipc, channels, height, width}) {
  DECO_CHECK(num_classes >= 1 && ipc >= 1, "SyntheticBuffer: bad dimensions");
  labels_.resize(static_cast<size_t>(size()));
  for (int64_t r = 0; r < size(); ++r)
    labels_[static_cast<size_t>(r)] = r / ipc_;
}

void SyntheticBuffer::init_from_dataset(const data::Dataset& labeled, Rng& rng) {
  const int64_t per = channels_ * height_ * width_;
  float* pi = images_.data();
  for (int64_t cls = 0; cls < num_classes_; ++cls) {
    std::vector<int64_t> pool = labeled.indices_of_class(cls);
    for (int64_t k = 0; k < ipc_; ++k) {
      const int64_t row = cls * ipc_ + k;
      float* dst = pi + row * per;
      if (pool.empty()) {
        for (int64_t i = 0; i < per; ++i)
          dst[i] = std::clamp(
              static_cast<float>(rng.normal(0.5, 0.25)), 0.0f, 1.0f);
        continue;
      }
      const int64_t pick =
          pool[static_cast<size_t>(rng.uniform_int(
              static_cast<int64_t>(pool.size())))];
      const Tensor& img = labeled.image(pick);
      DECO_CHECK(img.numel() == per,
                 "SyntheticBuffer: labeled image shape mismatch");
      std::copy(img.data(), img.data() + per, dst);
    }
  }
  grads_.zero();
}

void SyntheticBuffer::init_random(Rng& rng) {
  float* pi = images_.data();
  for (int64_t i = 0, n = images_.numel(); i < n; ++i)
    pi[i] = std::clamp(static_cast<float>(rng.normal(0.5, 0.25)), 0.0f, 1.0f);
  grads_.zero();
}

std::vector<int64_t> SyntheticBuffer::rows_of_class(int64_t cls) const {
  DECO_CHECK(cls >= 0 && cls < num_classes_, "rows_of_class: class range");
  std::vector<int64_t> rows(static_cast<size_t>(ipc_));
  for (int64_t k = 0; k < ipc_; ++k) rows[static_cast<size_t>(k)] = cls * ipc_ + k;
  return rows;
}

std::vector<int64_t> SyntheticBuffer::rows_of_classes(
    const std::vector<int64_t>& classes) const {
  std::vector<int64_t> rows;
  rows.reserve(classes.size() * static_cast<size_t>(ipc_));
  for (int64_t cls : classes) {
    auto r = rows_of_class(cls);
    rows.insert(rows.end(), r.begin(), r.end());
  }
  return rows;
}

Tensor SyntheticBuffer::gather(const std::vector<int64_t>& rows) const {
  DECO_CHECK(!rows.empty(), "SyntheticBuffer::gather: empty selection");
  Tensor out({static_cast<int64_t>(rows.size()), channels_, height_, width_});
  const int64_t per = channels_ * height_ * width_;
  const float* pi = images_.data();
  float* po = out.data();
  for (size_t i = 0; i < rows.size(); ++i) {
    const int64_t r = rows[i];
    DECO_CHECK(r >= 0 && r < size(), "SyntheticBuffer::gather: row range");
    std::copy(pi + r * per, pi + (r + 1) * per, po + static_cast<int64_t>(i) * per);
  }
  return out;
}

void SyntheticBuffer::scatter_add_grad(const std::vector<int64_t>& rows,
                                       const Tensor& delta, float alpha) {
  const int64_t per = channels_ * height_ * width_;
  DECO_CHECK(delta.numel() == static_cast<int64_t>(rows.size()) * per,
             "SyntheticBuffer::scatter_add_grad: delta shape mismatch");
  const float* pd = delta.data();
  float* pg = grads_.data();
  for (size_t i = 0; i < rows.size(); ++i) {
    const int64_t r = rows[i];
    DECO_CHECK(r >= 0 && r < size(), "scatter_add_grad: row range");
    float* dst = pg + r * per;
    const float* src = pd + static_cast<int64_t>(i) * per;
    for (int64_t j = 0; j < per; ++j) dst[j] += alpha * src[j];
  }
}

void SyntheticBuffer::scatter_images(const std::vector<int64_t>& rows,
                                     const Tensor& values) {
  const int64_t per = channels_ * height_ * width_;
  DECO_CHECK(values.numel() == static_cast<int64_t>(rows.size()) * per,
             "SyntheticBuffer::scatter_images: value shape mismatch");
  const float* pv = values.data();
  float* pi = images_.data();
  for (size_t i = 0; i < rows.size(); ++i) {
    const int64_t r = rows[i];
    DECO_CHECK(r >= 0 && r < size(), "scatter_images: row range");
    std::copy(pv + static_cast<int64_t>(i) * per,
              pv + static_cast<int64_t>(i + 1) * per, pi + r * per);
  }
}

std::vector<int64_t> SyntheticBuffer::gather_labels(
    const std::vector<int64_t>& rows) const {
  std::vector<int64_t> out;
  out.reserve(rows.size());
  for (int64_t r : rows) {
    DECO_CHECK(r >= 0 && r < size(), "gather_labels: row range");
    out.push_back(labels_[static_cast<size_t>(r)]);
  }
  return out;
}

void SyntheticBuffer::enable_soft_labels(float initial_confidence) {
  DECO_CHECK(initial_confidence > 1.0f / static_cast<float>(num_classes_) &&
                 initial_confidence < 1.0f,
             "enable_soft_labels: confidence must be in (1/C, 1)");
  soft_labels_ = true;
  label_logits_ = Tensor({size(), num_classes_});
  label_grads_ = Tensor({size(), num_classes_});
  // Logit a on the own class, 0 elsewhere, chosen so softmax puts
  // `initial_confidence` on the own class: a = log(p·(C−1)/(1−p)).
  const float a = std::log(initial_confidence *
                           static_cast<float>(num_classes_ - 1) /
                           (1.0f - initial_confidence));
  for (int64_t r = 0; r < size(); ++r)
    label_logits_.at2(r, labels_[static_cast<size_t>(r)]) = a;
}

Tensor SyntheticBuffer::soft_targets(const std::vector<int64_t>& rows) const {
  DECO_CHECK(soft_labels_, "soft_targets: soft labels not enabled");
  Tensor sel({static_cast<int64_t>(rows.size()), num_classes_});
  for (size_t i = 0; i < rows.size(); ++i) {
    const int64_t r = rows[i];
    DECO_CHECK(r >= 0 && r < size(), "soft_targets: row range");
    for (int64_t c = 0; c < num_classes_; ++c)
      sel.at2(static_cast<int64_t>(i), c) = label_logits_.at2(r, c);
  }
  return softmax_rows(sel);
}

void SyntheticBuffer::scatter_add_label_grad_from_targets(
    const std::vector<int64_t>& rows, const Tensor& grad_targets, float alpha) {
  DECO_CHECK(soft_labels_, "scatter_add_label_grad: soft labels not enabled");
  DECO_CHECK(grad_targets.ndim() == 2 &&
                 grad_targets.dim(0) == static_cast<int64_t>(rows.size()) &&
                 grad_targets.dim(1) == num_classes_,
             "scatter_add_label_grad: grad shape mismatch");
  // Chain dL/dq through q = softmax(z): dL/dz = q ⊙ (g − ⟨q, g⟩).
  Tensor q = soft_targets(rows);
  for (size_t i = 0; i < rows.size(); ++i) {
    const int64_t r = rows[i];
    double qdotg = 0.0;
    for (int64_t c = 0; c < num_classes_; ++c)
      qdotg += static_cast<double>(q.at2(static_cast<int64_t>(i), c)) *
               grad_targets.at2(static_cast<int64_t>(i), c);
    for (int64_t c = 0; c < num_classes_; ++c) {
      const float g = q.at2(static_cast<int64_t>(i), c) *
                      (grad_targets.at2(static_cast<int64_t>(i), c) -
                       static_cast<float>(qdotg));
      label_grads_.at2(r, c) += alpha * g;
    }
  }
}

void SyntheticBuffer::clamp_pixels() { images_.clamp_(0.0f, 1.0f); }

void SyntheticBuffer::set_storage(DType dtype, int64_t block) {
  StoragePolicy p;
  p.cache_dtype = dtype;
  p.block = block;
  p.validate();
  store_dtype_ = dtype;
  store_block_ = block;
  if (dtype == DType::kF32) {
    qimages_ = QTensor();
  } else {
    // Allocate the canonical storage once; commits re-encode in place.
    qimages_ = QTensor::encode(images_, dtype, block);
  }
}

void SyntheticBuffer::commit_storage() {
  if (store_dtype_ == DType::kF32) return;
  qimages_.reencode(images_);
  qimages_.decode_into(images_.data());
}

int64_t SyntheticBuffer::stored_bytes() const {
  if (store_dtype_ == DType::kF32) return logical_bytes();
  return qimages_.stored_bytes();
}

void SyntheticBuffer::restore_stored(QTensor q) {
  DECO_CHECK(store_dtype_ != DType::kF32,
             "restore_stored: buffer storage policy is fp32");
  DECO_CHECK(q.dtype() == store_dtype_,
             "restore_stored: state dtype " + dtype_name(q.dtype()) +
                 " does not match the configured cache dtype " +
                 dtype_name(store_dtype_));
  DECO_CHECK(q.numel() == images_.numel() && q.shape() == images_.shape(),
             "restore_stored: stored shape mismatch");
  DECO_CHECK(q.block() == store_block_,
             "restore_stored: stored block length mismatch");
  qimages_ = std::move(q);
  qimages_.decode_into(images_.data());
}

}  // namespace deco::condense
