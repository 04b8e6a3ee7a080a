// Pluggable condensation methods.
//
// Table II of the paper compares four ways of distilling a stream segment
// into the synthetic buffer: DC (bilevel gradient matching), DSA (DC with
// differentiable siamese augmentation), DM (distribution matching) and DECO
// (one-step matching with finite differences). All four implement this
// interface so the streaming harness and the timing benchmark can swap them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <iosfwd>

#include "deco/augment/siamese.h"
#include "deco/condense/buffer.h"
#include "deco/condense/matcher.h"
#include "deco/core/guard.h"
#include "deco/nn/convnet.h"
#include "deco/tensor/rng.h"

namespace deco::condense {

/// Everything a condenser may use for one segment update. The real data has
/// already been pseudo-labeled and majority-voting-filtered upstream.
struct CondenseContext {
  SyntheticBuffer* buffer = nullptr;
  const Tensor* x_real = nullptr;               // [K, C, H, W]
  const std::vector<int64_t>* y_real = nullptr; // pseudo-labels
  const std::vector<float>* w_real = nullptr;   // confidence weights (Eq. 4)
  const std::vector<int64_t>* active_classes = nullptr;
  nn::ConvNet* deployed_model = nullptr;  // encoder for feature discrimination
  Rng* rng = nullptr;
  /// Optional numeric-health guard. When set (and enabled), condensers that
  /// support it validate each matching step and roll diverged steps back to
  /// a pre-step snapshot, retrying once with backed-off step sizes.
  core::NumericGuard* guard = nullptr;
};

class Condenser {
 public:
  virtual ~Condenser() = default;
  /// Updates the buffer's synthetic images from one segment of real data.
  virtual void condense(const CondenseContext& ctx) = 0;
  virtual std::string name() const = 0;

  /// Persists / restores internal state (rng, momentum velocities) for
  /// crash-safe resume. Stateless condensers keep the no-op default; a method
  /// whose future behavior depends on per-segment mutable state must override
  /// both so a killed-and-resumed run replays bit-exactly.
  virtual void save_state(std::ostream& os) const { (void)os; }
  virtual void load_state(std::istream& is) { (void)is; }
};

// ---- DECO (ours) -------------------------------------------------------------

struct DecoCondenserConfig {
  int64_t iterations = 10;     ///< L in Algorithm 1
  /// opt_S learning rate, applied to RMS-normalized gradients (see
  /// normalize_grad): the expected per-pixel step is ≈ lr_syn per iteration.
  float lr_syn = 0.01f;
  float momentum_syn = 0.5f;
  float alpha = 0.1f;          ///< feature-discrimination weight (Eq. 9)
  float tau = 0.07f;           ///< contrastive temperature (Eq. 8)
  float fd_scale = 0.01f;      ///< ε numerator of the finite-difference rule
  /// Cap on positives/negatives per anchor in the contrastive term; bounds
  /// the encoder batch on large buffers.
  int64_t contrastive_cap = 8;
  bool feature_discrimination = true;  ///< ablation switch (Fig. 4b, α = 0)
  /// One-step matching draws a FRESH random model every iteration (the
  /// paper's empirical finding (2): many random models × one step beats one
  /// model × many steps). false keeps a single fixed random model across all
  /// L iterations — the ablation baseline.
  bool rerandomize_each_iteration = true;
  /// Normalize the matching gradient to unit RMS before the opt_S step. The
  /// summed cosine distance's raw input gradients are large and vary by
  /// orders of magnitude across random models; unnormalized steps saturate
  /// pixels against the [0,1] clamp and *destroy* buffer information (see
  /// DESIGN.md 4.a). RMS normalization makes lr_syn a per-pixel step size.
  bool normalize_grad = true;
  /// Learnable-soft-label extension: synthetic samples carry learned class
  /// distributions, co-optimized with the pixels by the same one-step
  /// matching rule (∇_q L is analytic; the finite-difference estimate of
  /// ∇_q D costs no extra passes). Requires the buffer to have soft labels
  /// enabled (DecoLearner does this automatically).
  bool learn_soft_labels = false;
  float lr_label = 0.01f;  ///< step size on RMS-normalized label-logit grads
};

class DecoCondenser : public Condenser {
 public:
  DecoCondenser(const nn::ConvNetConfig& model_config, DecoCondenserConfig config,
                uint64_t seed);
  void condense(const CondenseContext& ctx) override;
  std::string name() const override { return "DECO"; }

  /// Matching-loss trace of the last condense() call (diagnostics).
  const std::vector<float>& last_distances() const { return last_distances_; }

  /// Persists rng + momentum state; scratch-model parameters are re-derived
  /// from the rng on the next condense() call, so they are not stored.
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

 private:
  /// One matching step on the active rows with all step sizes (lr_syn,
  /// lr_label, alpha) scaled by `step_scale`; returns the matching distance.
  float run_iteration(const CondenseContext& ctx,
                      const std::vector<int64_t>& active_rows,
                      const std::vector<int64_t>& y_syn,
                      const std::vector<float>& w_real,
                      GradientMatcher& matcher, float step_scale);

  /// Computes the feature-discrimination input gradient into disc_scratch_
  /// and returns its global norm (0 if no anchors had positive pairs).
  float apply_feature_discrimination(const CondenseContext& ctx,
                                     const std::vector<int64_t>& active_rows);

  DecoCondenserConfig config_;
  Rng rng_;
  std::unique_ptr<nn::ConvNet> scratch_;  // the randomized θ̃
  Tensor velocity_;                       // momentum state over buffer rows
  Tensor velocity_labels_;                // momentum state over label logits
  std::vector<float> last_distances_;
  std::vector<int64_t> last_disc_rows_;   // rows touched by the last disc pass
  Tensor disc_scratch_;                   // staged α-term gradient (Eq. 9)
};

// ---- DC / DSA (bilevel baselines) ---------------------------------------------

struct BilevelConfig {
  int64_t outer_loops = 2;     ///< random model re-draws (K)
  int64_t inner_epochs = 10;   ///< matching+training epochs per draw (T)
  int64_t model_steps = 4;     ///< model SGD steps on S per inner epoch (ζ_θ)
  float lr_syn = 0.01f;        ///< on RMS-normalized gradients, as in DECO
  float momentum_syn = 0.5f;
  float lr_model = 0.01f;
  float fd_scale = 0.01f;
  std::string dsa_strategy;    ///< empty → DC; non-empty → DSA
};

class BilevelCondenser : public Condenser {
 public:
  BilevelCondenser(const nn::ConvNetConfig& model_config, BilevelConfig config,
                   uint64_t seed);
  void condense(const CondenseContext& ctx) override;
  std::string name() const override {
    return config_.dsa_strategy.empty() ? "DC" : "DSA";
  }

 private:
  BilevelConfig config_;
  Rng rng_;
  std::unique_ptr<nn::ConvNet> scratch_;
  augment::SiameseAugment aug_;
  Tensor velocity_;
};

// ---- DM (distribution matching) ----------------------------------------------

struct DmConfig {
  /// DM's per-iteration cost is much lower than a one-step matching pass (no
  /// parameter gradients, no finite-difference passes), and the method needs
  /// more iterations for its weaker per-class mean signal to shape the
  /// images. 25 iterations calibrates DM's per-segment budget to the paper's
  /// relative execution time (Table II: DM ≈ 0.6× DECO's time).
  int64_t iterations = 25;
  float lr_syn = 0.01f;  ///< on RMS-normalized gradients, as in DECO
  float momentum_syn = 0.5f;
};

class DmCondenser : public Condenser {
 public:
  DmCondenser(const nn::ConvNetConfig& model_config, DmConfig config,
              uint64_t seed);
  void condense(const CondenseContext& ctx) override;
  std::string name() const override { return "DM"; }

 private:
  DmConfig config_;
  Rng rng_;
  std::unique_ptr<nn::ConvNet> scratch_;
  Tensor velocity_;
};

}  // namespace deco::condense
