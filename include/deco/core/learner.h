// On-device learners: the common streaming interface plus the DECO learner
// implementing Algorithm 1 of the paper.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "deco/condense/buffer.h"
#include "deco/condense/method.h"
#include "deco/core/guard.h"
#include "deco/core/pseudo_label.h"
#include "deco/data/dataset.h"
#include "deco/nn/checkpoint.h"
#include "deco/nn/convnet.h"

namespace deco::core {

/// What a learner did with one segment — consumed by evaluation harnesses
/// (pseudo-label accuracy, retention rate, Fig. 4a).
struct SegmentReport {
  std::vector<int64_t> pseudo_labels;  ///< −1 for quarantined frames
  std::vector<float> confidences;
  std::vector<int64_t> retained;
  int64_t active_class_count = 0;
  float condense_distance = 0.0f;  ///< last gradient-matching distance (DECO)

  // Numeric-guard interventions during this segment (0 when guards are off).
  int64_t frames_quarantined = 0;  ///< non-finite frames excluded
  int64_t segment_skipped = 0;     ///< 1 when no usable frame survived
  int64_t steps_rolled_back = 0;   ///< diverged condensation steps undone
  int64_t batches_skipped = 0;     ///< model-update batches dropped
  int64_t grads_clipped = 0;       ///< model-update gradient-norm clips
};

/// Streaming learner interface shared by DECO and the replay baselines.
///
/// This is the single polymorphic surface the evaluation harness and the
/// multi-session runtime (runtime/session_manager.h) host learners through:
/// segment ingestion, on-demand model updates, crash-safe persistence and a
/// memory footprint estimate all dispatch virtually, so DECO, the replay
/// baselines and the condensation baselines are interchangeable without
/// downcasts.
class OnDeviceLearner {
 public:
  virtual ~OnDeviceLearner() = default;
  /// Consumes one unlabeled segment (Algorithm 1 body for DECO).
  virtual SegmentReport observe_segment(const Tensor& images) = 0;
  /// Oracle entry point: consumes a segment WITH its ground-truth labels.
  /// Only the upper-bound learner uses them; the default ignores the labels
  /// and forwards to observe_segment, so the harness can dispatch uniformly.
  virtual SegmentReport observe_labeled_segment(
      const Tensor& images, const std::vector<int64_t>& true_labels) {
    (void)true_labels;
    return observe_segment(images);
  }
  virtual nn::ConvNet& model() = 0;
  virtual std::string name() const = 0;
  /// Cumulative wall-clock seconds spent inside buffer condensation/selection
  /// (Table II's execution-time metric).
  virtual double condense_seconds() const = 0;

  /// Trains the deployed model on the learner's current buffer immediately
  /// (outside the β-schedule). Learners without a retraining notion no-op.
  virtual void update_model_now() {}

  /// True when state_bytes/load_state are implemented; the runtime only
  /// schedules periodic checkpoints for learners that return true.
  virtual bool supports_state() const { return false; }
  /// The complete learner state as one file image. The default throws
  /// deco::Error — override together with supports_state() and load_state.
  virtual std::string state_bytes() const;
  /// Crash-safe persistence: writes state_bytes() to `path` atomically
  /// (temp + rename), so a power loss mid-save keeps the previous file.
  virtual void save_state(const std::string& path) const;
  /// Restores a save_state file; throws deco::Error on mismatch/corruption
  /// without modifying the learner. The default throws.
  virtual void load_state(const std::string& path);

  /// Approximate resident bytes of learner-owned state (model parameters
  /// plus buffer contents, *as stored* — a quantized cache reports its
  /// post-quantization byte count). The multi-session runtime partitions the
  /// tensor pool budget across sessions with this estimate.
  virtual int64_t memory_bytes() const { return 0; }

  /// Stored vs logical-fp32 bytes of the learner's sample cache (condensed
  /// buffer or replay rows; the model is excluded). The scenario matrix
  /// reports both so the compression ratio of quantized caches is tracked
  /// per PR. Learners without a cache return 0.
  virtual int64_t cache_stored_bytes() const { return 0; }
  virtual int64_t cache_logical_bytes() const { return 0; }

  /// Applies the runtime's checkpoint dtype policy (runtime.checkpoint_dtype)
  /// to subsequent save_state calls. The default ignores it; stateful
  /// learners store model parameters at this dtype. fp32 (the default)
  /// preserves bit-exact crash resume; fp16/int8 trade that for smaller
  /// checkpoint files.
  virtual void set_checkpoint_dtype(DType dtype) { (void)dtype; }
};

/// What DECO and the replay baselines share (paper Section IV-A3 defaults),
/// so Table I compares them at one IpC under one schedule (β, epochs, lr).
struct LearnerConfig {
  int64_t ipc = 10;               ///< images per class in the buffer
  int64_t beta = 10;              ///< model update interval, in segments
  int64_t model_update_epochs = 30;  ///< epochs of opt_θ on S (paper: 200)
  float lr_model = 1e-3f;
  float weight_decay = 5e-4f;
  int64_t train_batch = 32;
  StoragePolicy storage;  ///< cache dtype (deco.cache_dtype, deco.quant_block)

  /// Throws deco::Error on out-of-range values (called by every learner's
  /// constructor, so bad configs fail loudly up front).
  void validate() const;
};

/// The DECO learner's config: the shared schedule plus its own filter and
/// condenser.
struct DecoConfig : LearnerConfig {
  float threshold_m = 0.4f;       ///< majority-voting filter threshold
  bool use_majority_voting = true;  ///< ablation switch
  condense::DecoCondenserConfig condenser;
  GuardConfig guard;  ///< numeric-health policy (guard.enabled=false to ablate)

  void validate() const;  ///< LearnerConfig::validate plus DECO's fields
};

/// The DECO framework (Algorithm 1): pseudo-label → majority vote → condense
/// into the synthetic buffer → periodically retrain the deployed model on S.
/// A custom condenser (DC / DSA / DM) can be injected for the Table II
/// comparison; by default the DECO one-step condenser is used.
class DecoLearner : public OnDeviceLearner {
 public:
  DecoLearner(nn::ConvNet& model, DecoConfig config, uint64_t seed);
  DecoLearner(nn::ConvNet& model, DecoConfig config, uint64_t seed,
              std::unique_ptr<condense::Condenser> condenser);

  /// Initializes the buffer from the labeled pre-training data (the paper
  /// initializes it with offline-condensed labeled data; we warm-start from
  /// real labeled samples, the standard condensation initialization, then the
  /// stream refines them).
  void init_buffer_from(const data::Dataset& labeled);

  SegmentReport observe_segment(const Tensor& images) override;
  nn::ConvNet& model() override { return model_; }
  std::string name() const override;
  double condense_seconds() const override { return condense_seconds_; }
  /// Model parameters plus the synthetic buffer (and soft-label logits),
  /// counting the buffer at its stored (possibly quantized) size.
  int64_t memory_bytes() const override;
  int64_t cache_stored_bytes() const override;
  int64_t cache_logical_bytes() const override;
  void set_checkpoint_dtype(DType dtype) override { checkpoint_dtype_ = dtype; }

  condense::SyntheticBuffer& buffer() { return buffer_; }
  const DecoConfig& config() const { return config_; }
  int64_t segments_seen() const { return segments_seen_; }

  /// The numeric-health guard (quarantine/rollback/clip counters live in
  /// guard().stats()).
  NumericGuard& guard() { return guard_; }
  const NumericGuard& guard() const { return guard_; }

  /// Trains the deployed model on the current buffer (opt_θ(θ, S)); called
  /// automatically every β segments, exposed for final-update use.
  void update_model_now() override;

  bool supports_state() const override { return true; }
  /// The DECOLSAV file: model parameters, the synthetic buffer (images and,
  /// when enabled, soft-label logits), the stream position (segments_seen)
  /// and all rng/momentum state, so a killed run resumed via load_state
  /// replays the remaining stream bit-exactly. The file carries a CRC32
  /// trailer; save_state writes it atomically.
  std::string state_bytes() const override;
  /// Restores a save_state file. Architecture/shape mismatches, truncation
  /// and CRC failures throw deco::Error without modifying the learner.
  void load_state(const std::string& path) override;

 private:
  nn::ConvNet& model_;
  DecoConfig config_;
  Rng rng_;
  condense::SyntheticBuffer buffer_;
  std::unique_ptr<condense::Condenser> condenser_;
  NumericGuard guard_;
  DType checkpoint_dtype_ = DType::kF32;  ///< parameter records in save_state
  int64_t segments_seen_ = 0;
  double condense_seconds_ = 0.0;
};

/// Metadata of a DECOLSAV learner-state file (DecoLearner::state_bytes):
///
///   magic | u32 version=2 | i64 segments | rng state | parameter list
///   | buffer tensor | u8 soft [| logits tensor] | string condenser
///   | condenser blob | u32 CRC32 of everything after the magic
struct StateInfo {
  uint32_t version = 0;
  int64_t segments_seen = 0;
  std::vector<nn::ParamInfo> params;
  TensorInfo buffer;
  bool soft_labels = false;
  TensorInfo logits;  ///< set when soft_labels
  std::string condenser;
  int64_t condenser_bytes = 0;  ///< the condenser's own state blob
};

/// Reads a learner-state file's metadata from `is` (positioned at the magic)
/// through skip_tensor, so no tensor payload is loaded and the CRC is not
/// checked. Throws deco::Error on a malformed or truncated header.
StateInfo read_state_info(std::istream& is);

/// Shared model-update routine: SGD-with-momentum training of `model` on an
/// in-memory set of images/labels for `epochs` epochs. Used by DECO (training
/// on S) and by the replay baselines (training on their real-sample buffers).
/// When `guard` is given (and enabled), batches with non-finite loss or
/// gradients are skipped and exploding gradient norms are clipped.
void train_classifier(nn::ConvNet& model, const Tensor& images,
                      const std::vector<int64_t>& labels, int64_t epochs,
                      float lr, float weight_decay, int64_t batch_size,
                      Rng& rng, NumericGuard* guard = nullptr);

/// Soft-target variant: trains on class distributions (the learnable-soft-
/// label extension). `targets` is [N, num_classes].
void train_classifier_soft(nn::ConvNet& model, const Tensor& images,
                           const Tensor& targets, int64_t epochs, float lr,
                           float weight_decay, int64_t batch_size, Rng& rng,
                           NumericGuard* guard = nullptr);

}  // namespace deco::core
