// Class-balanced synthetic-image buffer (the condensed dataset S).
//
// The buffer holds exactly `ipc` (images-per-class) synthetic samples for
// every class — the paper's class-balance invariant |S_c| = |S|/|C| — stored
// as one contiguous [num_classes·ipc, C, H, W] tensor so condensers can treat
// the whole buffer (or any row subset) as an optimizable parameter. A grad
// tensor of identical shape accompanies it.
#pragma once

#include <cstdint>
#include <vector>

#include "deco/data/dataset.h"
#include "deco/tensor/dtype.h"
#include "deco/tensor/rng.h"
#include "deco/tensor/tensor.h"

namespace deco::condense {

class SyntheticBuffer {
 public:
  SyntheticBuffer(int64_t num_classes, int64_t ipc, int64_t channels,
                  int64_t height, int64_t width);

  /// Initializes each class slot from random real samples of that class (the
  /// standard warm start in the condensation literature). Classes absent from
  /// `labeled` fall back to Gaussian noise.
  void init_from_dataset(const data::Dataset& labeled, Rng& rng);

  /// Initializes every slot with N(0.5, 0.25) noise clamped to [0, 1].
  void init_random(Rng& rng);

  int64_t num_classes() const { return num_classes_; }
  int64_t ipc() const { return ipc_; }
  int64_t size() const { return num_classes_ * ipc_; }

  Tensor& images() { return images_; }
  const Tensor& images() const { return images_; }
  Tensor& grads() { return grads_; }

  const std::vector<int64_t>& labels() const { return labels_; }
  int64_t label(int64_t row) const { return labels_[static_cast<size_t>(row)]; }

  /// Buffer rows belonging to `cls` (a contiguous range by construction).
  std::vector<int64_t> rows_of_class(int64_t cls) const;
  /// Rows of all classes in `classes`, in buffer order.
  std::vector<int64_t> rows_of_classes(const std::vector<int64_t>& classes) const;

  /// Gathers selected rows into a [k, C, H, W] batch.
  Tensor gather(const std::vector<int64_t>& rows) const;
  /// Adds `delta` (shaped like gather(rows)) scaled by `alpha` into the
  /// gradient tensor at the given rows.
  void scatter_add_grad(const std::vector<int64_t>& rows, const Tensor& delta,
                        float alpha);
  /// Writes rows of `values` (shaped like gather(rows)) back into the images.
  void scatter_images(const std::vector<int64_t>& rows, const Tensor& values);

  /// Labels for a row selection.
  std::vector<int64_t> gather_labels(const std::vector<int64_t>& rows) const;

  // ---- learnable soft labels (extension) -----------------------------------
  // Each row optionally carries label *logits* whose row-softmax is the
  // sample's class distribution — the learnable-soft-label extension of
  // dataset condensation. Hard labels remain the argmax (and the rows stay
  // class-balanced); only the distribution around them is learned.

  /// Enables soft labels, initializing each row to a distribution with
  /// `initial_confidence` mass on the row's hard label.
  void enable_soft_labels(float initial_confidence = 0.9f);
  bool soft_labels_enabled() const { return soft_labels_; }
  Tensor& label_logits() { return label_logits_; }
  Tensor& label_grads() { return label_grads_; }
  /// Row-softmax class distributions for the selected rows: [k, num_classes].
  Tensor soft_targets(const std::vector<int64_t>& rows) const;
  /// Accumulates dL/d(label_logits) for the selected rows, chaining the
  /// provided dL/d(targets) through the row softmax.
  void scatter_add_label_grad_from_targets(const std::vector<int64_t>& rows,
                                           const Tensor& grad_targets,
                                           float alpha);

  /// Clamp all pixels to [0, 1] (images remain valid sensor data).
  void clamp_pixels();

  int64_t channels() const { return channels_; }
  int64_t height() const { return height_; }
  int64_t width() const { return width_; }

  // ---- quantized storage (deco.cache_dtype) --------------------------------
  // Under a non-fp32 policy the cache's canonical form is a quantized
  // QTensor; images_ is its fp32 *working copy* (condensers optimize raw
  // floats through gather/scatter). commit_storage() re-encodes
  // the working copy and refreshes it to exactly the decoded values, so the
  // invariant "images() == decode(stored_images())" holds at every segment
  // boundary and save/load round-trips are byte-identical on the stored
  // form. Under fp32 (default) nothing changes: commit is a no-op and the
  // buffer is bit-identical to the pre-quantization implementation.

  /// Sets the storage policy. Call before the first commit.
  void set_storage(DType dtype, int64_t block = kDefaultQuantBlock);
  int64_t storage_block() const { return store_block_; }

  /// Quantizes the working images into canonical storage and decodes them
  /// back (quantization noise becomes visible to subsequent training, which
  /// is what makes the stored bytes the honest cache). No-op under fp32.
  void commit_storage();

  /// Bytes the image cache occupies as stored (post-quantization) vs as
  /// logical fp32 — the figures pool-budget admission and the scenario
  /// matrix report.
  int64_t stored_bytes() const;
  int64_t logical_bytes() const {
    return images_.numel() * static_cast<int64_t>(sizeof(float));
  }

  /// Canonical stored form (valid after commit_storage; invalid under fp32).
  const QTensor& stored_images() const { return qimages_; }
  /// Restores quantized storage from a deserialized QTensor and decodes the
  /// working copy from it (load_state path). Shape/dtype must match.
  void restore_stored(QTensor q);

 private:
  int64_t num_classes_, ipc_, channels_, height_, width_;
  Tensor images_;  // [M, C, H, W], row r has label r / ipc
  Tensor grads_;
  std::vector<int64_t> labels_;
  bool soft_labels_ = false;
  Tensor label_logits_;  // [M, num_classes], valid when soft_labels_
  Tensor label_grads_;
  DType store_dtype_ = DType::kF32;
  int64_t store_block_ = kDefaultQuantBlock;
  QTensor qimages_;  // canonical stored cache when store_dtype_ != kF32
};

}  // namespace deco::condense
