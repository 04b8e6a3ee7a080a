// In-memory labeled image dataset.
//
// Stores CHW images plus integer labels and optional provenance metadata
// (instance / environment ids) used by the stream simulator and by tests.
#pragma once

#include <cstdint>
#include <vector>

#include "deco/tensor/tensor.h"

namespace deco::data {

class Dataset {
 public:
  Dataset(int64_t channels, int64_t height, int64_t width)
      : channels_(channels), height_(height), width_(width) {}

  /// Appends one CHW image with its label (and optional provenance).
  void add(Tensor image, int64_t label, int64_t instance_id = -1,
           int64_t environment = -1);

  int64_t size() const { return static_cast<int64_t>(labels_.size()); }
  int64_t channels() const { return channels_; }
  int64_t height() const { return height_; }
  int64_t width() const { return width_; }

  const Tensor& image(int64_t i) const { return images_[static_cast<size_t>(i)]; }
  int64_t label(int64_t i) const { return labels_[static_cast<size_t>(i)]; }
  int64_t instance_id(int64_t i) const { return instance_ids_[static_cast<size_t>(i)]; }
  int64_t environment(int64_t i) const { return environments_[static_cast<size_t>(i)]; }
  const std::vector<int64_t>& labels() const { return labels_; }

  /// Gathers the selected images into one [k, C, H, W] batch tensor.
  Tensor batch(const std::vector<int64_t>& indices) const;
  /// Labels for the same selection.
  std::vector<int64_t> batch_labels(const std::vector<int64_t>& indices) const;

  /// All indices whose label equals `cls`.
  std::vector<int64_t> indices_of_class(int64_t cls) const;

 private:
  int64_t channels_, height_, width_;
  std::vector<Tensor> images_;
  std::vector<int64_t> labels_;
  std::vector<int64_t> instance_ids_;
  std::vector<int64_t> environments_;
};

}  // namespace deco::data
