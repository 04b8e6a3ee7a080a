// Replay-based on-device learning baselines (Section IV-A2 of the paper).
//
// All five maintain a class-balanced buffer of *real* samples (ipc slots per
// class, matching the synthetic buffer's footprint) and differ only in the
// replacement policy when a class slot is full:
//
//   * Random       — per-class reservoir sampling (Vitter).
//   * FIFO         — replace the oldest stored sample.
//   * Selective-BP — retain low-confidence samples (Jiang et al.): a new
//                    sample displaces the most-confident stored one if its
//                    own confidence is lower.
//   * K-Center     — greedy core-set cover in the encoder's feature space
//                    (Sener & Savarese): keep the subset whose max distance
//                    to the nearest kept sample is minimized greedily.
//   * GSS-Greedy   — gradient-based sample selection (Aljundi et al.): score
//                    samples by the maximum cosine similarity of their
//                    last-layer loss gradient to stored gradients; prefer
//                    diverse (low-similarity) samples.
//
// In the paper's unlabeled streaming setting, baselines receive the same
// model-predicted pseudo-labels DECO starts from (majority voting is part of
// DECO's contribution and is not granted to the baselines).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "deco/core/learner.h"
#include "deco/data/dataset.h"
#include "deco/nn/convnet.h"
#include "deco/tensor/rng.h"

namespace deco::baselines {

enum class Strategy {
  kRandom,
  kFifo,
  kSelectiveBp,
  kKCenter,
  kGssGreedy,
};

std::string strategy_name(Strategy s);
/// Parses "random" / "fifo" / "selective_bp" / "kcenter" / "gss".
Strategy strategy_from_name(const std::string& name);

struct BaselineConfig {
  int64_t ipc = 10;
  int64_t beta = 10;                 ///< model update interval (segments)
  int64_t model_update_epochs = 30;  ///< matches the DECO learner's schedule
  float lr_model = 1e-3f;
  float weight_decay = 5e-4f;
  int64_t train_batch = 32;
  StoragePolicy storage;             ///< replay-row dtype (deco.cache_dtype)
};

/// One stored sample plus the metadata the strategies score with.
///
/// Under a non-fp32 buffer policy the pixels live in `stored` (quantized)
/// and `image` is empty; training decodes on access. The feature/gradient
/// sketches stay fp32: the replacement strategies score with them
/// continuously and quantizing them would change eviction decisions, which
/// is a policy question, not a storage one.
struct StoredSample {
  Tensor image;
  int64_t label = 0;
  float confidence = 1.0f;
  int64_t arrival = 0;        ///< global arrival index (FIFO age)
  Tensor feature;             ///< encoder embedding (K-Center)
  Tensor gradient;            ///< last-layer gradient sketch (GSS)
  QTensor stored;             ///< quantized pixels (non-fp32 policy only)
};

/// Class-balanced replay buffer with pluggable replacement policy.
class ReplayBuffer {
 public:
  ReplayBuffer(int64_t num_classes, int64_t ipc, Strategy strategy,
               DType dtype = DType::kF32, int64_t block = kDefaultQuantBlock);

  /// Offers one sample; the strategy decides whether and where it is stored.
  /// Under a quantized policy the pixels are encoded here — rejected samples
  /// never hold fp32 pixel copies either.
  void offer(StoredSample sample, Rng& rng);

  int64_t num_classes() const { return num_classes_; }
  int64_t ipc() const { return ipc_; }
  int64_t size() const;

  /// Flattens the buffer into training tensors, decoding quantized rows.
  Tensor all_images() const;
  std::vector<int64_t> all_labels() const;

  /// Bytes the stored pixel rows occupy as stored vs as logical fp32
  /// (sketches and metadata excluded).
  int64_t image_stored_bytes() const;
  int64_t image_logical_bytes() const;

  const std::vector<StoredSample>& slot(int64_t cls) const {
    return slots_[static_cast<size_t>(cls)];
  }

 private:
  int64_t num_classes_, ipc_;
  Strategy strategy_;
  DType dtype_;
  int64_t block_;
  std::vector<std::vector<StoredSample>> slots_;
  std::vector<int64_t> seen_per_class_;  // reservoir counters
};

/// Streaming learner wrapping a ReplayBuffer — the baseline counterpart of
/// DecoLearner, sharing its pseudo-labeling and model-update schedule.
class BaselineLearner : public core::OnDeviceLearner {
 public:
  BaselineLearner(nn::ConvNet& model, Strategy strategy, BaselineConfig config,
                  uint64_t seed);

  /// Seeds the buffer with labeled pre-training samples (same warm start as
  /// the DECO buffer).
  void init_buffer_from(const data::Dataset& labeled);

  core::SegmentReport observe_segment(const Tensor& images) override;
  nn::ConvNet& model() override { return model_; }
  std::string name() const override { return strategy_name(strategy_); }
  double condense_seconds() const override { return select_seconds_; }
  /// Retrains the deployed model on the current replay buffer (the same
  /// routine the β-schedule triggers; no-op while the buffer is empty).
  void update_model_now() override;
  /// Model parameters plus every stored sample (image rows at their stored
  /// size, feature and gradient sketches as fp32).
  int64_t memory_bytes() const override;
  int64_t cache_stored_bytes() const override {
    return buffer_.image_stored_bytes();
  }
  int64_t cache_logical_bytes() const override {
    return buffer_.image_logical_bytes();
  }

  ReplayBuffer& buffer() { return buffer_; }

 private:
  nn::ConvNet& model_;
  Strategy strategy_;
  BaselineConfig config_;
  Rng rng_;
  ReplayBuffer buffer_;
  int64_t segments_seen_ = 0;
  int64_t arrivals_ = 0;
  double select_seconds_ = 0.0;
};

/// Upper-bound learner: unlimited buffer that stores every streamed sample.
/// Reported as "Upper Bound" in Table I. Used through
/// observe_labeled_segment it is an ORACLE (ground-truth labels, unlimited
/// memory) — a true upper bound on what any buffered method could reach;
/// observe_segment falls back to pseudo-labels for API compatibility.
class UnlimitedLearner : public core::OnDeviceLearner {
 public:
  UnlimitedLearner(nn::ConvNet& model, BaselineConfig config, uint64_t seed);

  void init_buffer_from(const data::Dataset& labeled);
  core::SegmentReport observe_segment(const Tensor& images) override;
  /// Oracle variant: stores the segment with its ground-truth labels.
  core::SegmentReport observe_labeled_segment(
      const Tensor& images, const std::vector<int64_t>& true_labels) override;
  nn::ConvNet& model() override { return model_; }
  std::string name() const override { return "upper_bound"; }
  double condense_seconds() const override { return 0.0; }
  /// Retrains on everything stored so far (no-op while nothing is stored).
  void update_model_now() override;
  /// Model parameters plus every stored sample (unbounded by design; rows
  /// count at their stored, possibly quantized, size).
  int64_t memory_bytes() const override;
  int64_t cache_stored_bytes() const override;
  int64_t cache_logical_bytes() const override;

  int64_t stored() const { return static_cast<int64_t>(labels_.size()); }

 private:
  core::SegmentReport store_and_train(const Tensor& images,
                                      const std::vector<int64_t>& labels,
                                      const core::PseudoLabelResult& pl);
  void store_image(const Tensor& img);
  Tensor stacked_images() const;

  nn::ConvNet& model_;
  BaselineConfig config_;
  Rng rng_;
  std::vector<Tensor> images_;     // fp32 policy
  std::vector<QTensor> qimages_;   // quantized policy
  std::vector<int64_t> labels_;
  int64_t segments_seen_ = 0;
};

}  // namespace deco::baselines
