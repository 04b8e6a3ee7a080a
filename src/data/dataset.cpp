#include "deco/data/dataset.h"

#include "deco/tensor/check.h"
#include "deco/tensor/ops.h"

namespace deco::data {

void Dataset::add(Tensor image, int64_t label, int64_t instance_id,
                  int64_t environment) {
  DECO_CHECK(image.ndim() == 3 && image.dim(0) == channels_ &&
                 image.dim(1) == height_ && image.dim(2) == width_,
             "Dataset::add: image " + image.shape_str() + " does not match (" +
                 std::to_string(channels_) + "," + std::to_string(height_) + "," +
                 std::to_string(width_) + ")");
  images_.push_back(std::move(image));
  labels_.push_back(label);
  instance_ids_.push_back(instance_id);
  environments_.push_back(environment);
}

Tensor Dataset::batch(const std::vector<int64_t>& indices) const {
  DECO_CHECK(!indices.empty(), "Dataset::batch: empty index list");
  Tensor out({static_cast<int64_t>(indices.size()), channels_, height_, width_});
  const int64_t per = channels_ * height_ * width_;
  float* po = out.data();
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t idx = indices[i];
    DECO_CHECK(idx >= 0 && idx < size(), "Dataset::batch: index out of range");
    const Tensor& img = images_[static_cast<size_t>(idx)];
    std::copy(img.data(), img.data() + per, po + static_cast<int64_t>(i) * per);
  }
  return out;
}

std::vector<int64_t> Dataset::batch_labels(
    const std::vector<int64_t>& indices) const {
  std::vector<int64_t> out;
  out.reserve(indices.size());
  for (int64_t idx : indices) {
    DECO_CHECK(idx >= 0 && idx < size(), "Dataset::batch_labels: index range");
    out.push_back(labels_[static_cast<size_t>(idx)]);
  }
  return out;
}

std::vector<int64_t> Dataset::indices_of_class(int64_t cls) const {
  std::vector<int64_t> out;
  for (int64_t i = 0; i < size(); ++i)
    if (labels_[static_cast<size_t>(i)] == cls) out.push_back(i);
  return out;
}

}  // namespace deco::data
