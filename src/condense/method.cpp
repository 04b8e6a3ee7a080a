#include "deco/condense/method.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <memory>
#include <ostream>
#include <unordered_set>

#include "deco/core/telemetry.h"
#include "deco/core/thread_pool.h"
#include "deco/nn/convnet.h"
#include "deco/nn/loss.h"
#include "deco/nn/optim.h"
#include "deco/tensor/check.h"
#include "deco/tensor/ops.h"
#include "deco/tensor/serialize.h"

namespace deco::condense {

namespace {

// Rescales a gradient tensor to unit root-mean-square so the optimizer's
// learning rate is a per-pixel step size, independent of the wildly varying
// raw magnitude of the cosine-distance gradient across random models.
void rms_normalize(Tensor& grad) {
  const float rms =
      grad.norm() / std::sqrt(static_cast<float>(std::max<int64_t>(1, grad.numel())));
  if (rms > 1e-12f) grad.scale_(1.0f / rms);
}

void ensure_velocity(Tensor& velocity, const SyntheticBuffer& buffer) {
  if (velocity.numel() != buffer.images().numel())
    velocity = Tensor(buffer.images().shape());
}

// Momentum-SGD update restricted to the given buffer rows, reading the
// buffer's gradient tensor. Rows not listed keep both image and velocity.
// A grain that batches ~64K scalars of per-row work into one pool chunk; a
// pure function of the row size, so chunking never depends on thread count.
int64_t rows_grain(int64_t per) {
  return std::max<int64_t>(1, (int64_t{1} << 16) / std::max<int64_t>(1, per));
}

void sgd_rows(SyntheticBuffer& buffer, const std::vector<int64_t>& rows,
              float lr, float momentum, Tensor& velocity) {
  const int64_t per =
      buffer.channels() * buffer.height() * buffer.width();
  float* img = buffer.images().data();
  float* vel = velocity.data();
  const float* grd = buffer.grads().data();
  const int64_t n_rows = static_cast<int64_t>(rows.size());
  // Rows are unique, so every chunk updates a disjoint slice of the buffer.
  core::parallel_for(0, n_rows, rows_grain(per), [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const int64_t r = rows[static_cast<size_t>(i)];
      float* w = img + r * per;
      float* v = vel + r * per;
      const float* g = grd + r * per;
      for (int64_t j = 0; j < per; ++j) {
        v[j] = momentum * v[j] + g[j];
        w[j] -= lr * v[j];
      }
    }
  });
}

// Splits a real segment into per-class index lists under the pseudo-labels.
std::vector<int64_t> real_indices_of_class(const std::vector<int64_t>& y_real,
                                           int64_t cls) {
  std::vector<int64_t> out;
  for (size_t i = 0; i < y_real.size(); ++i)
    if (y_real[i] == cls) out.push_back(static_cast<int64_t>(i));
  return out;
}

std::vector<float> take_weights(const std::vector<float>& w,
                                const std::vector<int64_t>& idx) {
  if (w.empty()) return {};
  std::vector<float> out;
  out.reserve(idx.size());
  for (int64_t i : idx) out.push_back(w[static_cast<size_t>(i)]);
  return out;
}

std::vector<int64_t> take_labels(const std::vector<int64_t>& y,
                                 const std::vector<int64_t>& idx) {
  std::vector<int64_t> out;
  out.reserve(idx.size());
  for (int64_t i : idx) out.push_back(y[static_cast<size_t>(i)]);
  return out;
}

void validate_context(const CondenseContext& ctx) {
  DECO_CHECK(ctx.buffer != nullptr, "CondenseContext: buffer missing");
  DECO_CHECK(ctx.x_real != nullptr && ctx.y_real != nullptr,
             "CondenseContext: real data missing");
  DECO_CHECK(ctx.active_classes != nullptr, "CondenseContext: actives missing");
  DECO_CHECK(ctx.rng != nullptr, "CondenseContext: rng missing");
  DECO_CHECK(ctx.x_real->dim(0) == static_cast<int64_t>(ctx.y_real->size()),
             "CondenseContext: real label count mismatch");
}

// ---- guard support: row-restricted snapshot/restore -------------------------

// Gathers into a caller-owned tensor so the per-iteration snapshot loop can
// reuse its buffers instead of allocating fresh ones each matching step.
void gather_rows_into(const Tensor& full, const std::vector<int64_t>& rows,
                      int64_t per, Tensor& out) {
  const int64_t n_rows = static_cast<int64_t>(rows.size());
  if (out.numel() != n_rows * per) {
    out = Tensor({n_rows, per});
  } else {
    out.reshape({n_rows, per});
  }
  const float* src = full.data();
  float* dst = out.data();
  core::parallel_for(0, n_rows, rows_grain(per), [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const int64_t r = rows[static_cast<size_t>(i)];
      std::copy(src + r * per, src + (r + 1) * per, dst + i * per);
    }
  });
}

void scatter_rows(Tensor& full, const std::vector<int64_t>& rows,
                  const Tensor& values, int64_t per) {
  const float* src = values.data();
  float* dst = full.data();
  const int64_t n_rows = static_cast<int64_t>(rows.size());
  core::parallel_for(0, n_rows, rows_grain(per), [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const int64_t r = rows[static_cast<size_t>(i)];
      std::copy(src + i * per, src + (i + 1) * per, dst + r * per);
    }
  });
}

/// Everything one DECO matching step mutates, restricted to the active rows.
struct RowSnapshot {
  Tensor images;
  Tensor velocity;
  Tensor logits;      // soft labels only
  Tensor vel_labels;  // soft labels only; may be empty if not yet allocated
};

bool rows_finite(const Tensor& full, const std::vector<int64_t>& rows,
                 int64_t per) {
  const float* p = full.data();
  const int64_t n_rows = static_cast<int64_t>(rows.size());
  // char partials, not bool: vector<bool> is bit-packed and concurrent chunk
  // writes to neighbouring bits would race.
  return core::parallel_reduce<char>(
             0, n_rows, rows_grain(per), char{1},
             [&](int64_t i0, int64_t i1) -> char {
               for (int64_t i = i0; i < i1; ++i) {
                 const int64_t r = rows[static_cast<size_t>(i)];
                 for (int64_t j = 0; j < per; ++j)
                   if (!std::isfinite(p[r * per + j])) return 0;
               }
               return 1;
             },
             [](char a, char b) -> char { return a & b; }) != 0;
}

// ---- condenser state serialization helpers ---------------------------------

void write_optional_tensor(std::ostream& os, const Tensor& t) {
  const uint8_t present = t.numel() > 0 ? 1 : 0;
  write_pod(os, present);
  if (present != 0) write_tensor(os, t);
}

Tensor read_optional_tensor(std::istream& is) {
  const uint8_t present = read_pod<uint8_t>(is);
  return present != 0 ? read_tensor(is) : Tensor();
}

}  // namespace

// ---- DECO ---------------------------------------------------------------------

DecoCondenser::DecoCondenser(const nn::ConvNetConfig& model_config,
                             DecoCondenserConfig config, uint64_t seed)
    : config_(config), rng_(seed) {
  scratch_ = std::make_unique<nn::ConvNet>(model_config, rng_);
}

void DecoCondenser::condense(const CondenseContext& ctx) {
  DECO_TRACE_SCOPE("condense/deco");
  validate_context(ctx);
  SyntheticBuffer& buf = *ctx.buffer;
  ensure_velocity(velocity_, buf);
  last_distances_.clear();

  const std::vector<int64_t> active_rows =
      buf.rows_of_classes(*ctx.active_classes);
  if (active_rows.empty() || ctx.x_real->dim(0) == 0) return;
  const std::vector<int64_t> y_syn = buf.gather_labels(active_rows);
  const std::vector<float> w_real =
      ctx.w_real != nullptr ? *ctx.w_real : std::vector<float>{};

  GradientMatcher matcher(*scratch_, config_.fd_scale);
  core::NumericGuard* guard =
      ctx.guard != nullptr && ctx.guard->enabled() ? ctx.guard : nullptr;
  const bool soft = config_.learn_soft_labels && buf.soft_labels_enabled();
  const int64_t per = buf.channels() * buf.height() * buf.width();
  const int64_t C = buf.num_classes();

  // Health verdict for one applied step: finite, non-exploding distance and
  // finite row values (the momentum velocity is covered by the snapshot).
  auto healthy = [&](float dist) {
    if (!guard->distance_healthy(dist)) return false;
    if (!rows_finite(buf.images(), active_rows, per)) return false;
    if (soft && !rows_finite(buf.label_logits(), active_rows, C)) return false;
    return true;
  };
  auto restore = [&](const RowSnapshot& snap) {
    scatter_rows(buf.images(), active_rows, snap.images, per);
    scatter_rows(velocity_, active_rows, snap.velocity, per);
    if (soft) {
      scatter_rows(buf.label_logits(), active_rows, snap.logits, C);
      if (snap.vel_labels.numel() > 0) {
        scatter_rows(velocity_labels_, active_rows, snap.vel_labels, C);
      } else if (velocity_labels_.numel() == buf.label_logits().numel()) {
        // The failed step allocated the label velocity; reset its rows.
        for (int64_t r : active_rows)
          for (int64_t c = 0; c < C; ++c) velocity_labels_[r * C + c] = 0.0f;
      }
    }
  };

  if (!config_.rerandomize_each_iteration) scratch_->reinitialize(rng_);
  RowSnapshot snap;  // hoisted: its buffers are reused every iteration
  for (int64_t l = 0; l < config_.iterations; ++l) {
    // Fresh random model each iteration — the one-step strategy replaces the
    // bilevel inner loop with re-randomization (Section III-C).
    if (config_.rerandomize_each_iteration) scratch_->reinitialize(rng_);

    if (guard != nullptr) {
      gather_rows_into(buf.images(), active_rows, per, snap.images);
      gather_rows_into(velocity_, active_rows, per, snap.velocity);
      if (soft) {
        gather_rows_into(buf.label_logits(), active_rows, C, snap.logits);
        if (velocity_labels_.numel() == buf.label_logits().numel()) {
          gather_rows_into(velocity_labels_, active_rows, C, snap.vel_labels);
        } else {
          // No label velocity yet: restore() keys off an empty snapshot.
          snap.vel_labels = Tensor();
        }
      }
    }

    float dist = run_iteration(ctx, active_rows, y_syn, w_real, matcher, 1.0f);
    if (guard != nullptr && !healthy(dist)) {
      restore(snap);
      guard->note_rollback();
      // One retry: a fresh random model (the divergence is usually a bad
      // draw) with all step sizes backed off.
      scratch_->reinitialize(rng_);
      dist = run_iteration(ctx, active_rows, y_syn, w_real, matcher,
                           guard->config().backoff);
      if (!healthy(dist)) {
        restore(snap);
        guard->note_rollback();
        continue;  // give up on this iteration; the buffer is unchanged
      }
    }
    last_distances_.push_back(dist);
  }
}

float DecoCondenser::run_iteration(const CondenseContext& ctx,
                                   const std::vector<int64_t>& active_rows,
                                   const std::vector<int64_t>& y_syn,
                                   const std::vector<float>& w_real,
                                   GradientMatcher& matcher, float step_scale) {
  {
    static core::telemetry::Counter& c =
        core::telemetry::counter("condense/iterations");
    c.add(1);
  }
  SyntheticBuffer& buf = *ctx.buffer;
  Tensor x_syn = buf.gather(active_rows);
  const bool soft = config_.learn_soft_labels && buf.soft_labels_enabled();
  MatchResult res;
  if (soft) {
    Tensor q_syn = buf.soft_targets(active_rows);
    GradientMatcher::SoftResult sr =
        matcher.match_soft(x_syn, q_syn, *ctx.x_real, *ctx.y_real, w_real);
    res = std::move(sr.base);
    if (config_.normalize_grad) rms_normalize(sr.grad_targets);
    if (velocity_labels_.numel() != buf.label_logits().numel())
      velocity_labels_ = Tensor(buf.label_logits().shape());
    buf.label_grads().zero();
    buf.scatter_add_label_grad_from_targets(active_rows, sr.grad_targets,
                                            1.0f);
    // Momentum SGD on the label logits of the active rows.
    const int64_t C = buf.num_classes();
    for (int64_t r : active_rows) {
      for (int64_t c = 0; c < C; ++c) {
        float& v = velocity_labels_[r * C + c];
        v = config_.momentum_syn * v + buf.label_grads()[r * C + c];
        buf.label_logits()[r * C + c] -= config_.lr_label * step_scale * v;
      }
    }
  } else {
    res = matcher.match(x_syn, y_syn, *ctx.x_real, *ctx.y_real, w_real);
  }
  if (config_.normalize_grad) rms_normalize(res.grad_syn);
  buf.grads().zero();
  buf.scatter_add_grad(active_rows, res.grad_syn, 1.0f);

  std::vector<int64_t> touched = active_rows;
  if (config_.feature_discrimination && config_.alpha > 0.0f &&
      ctx.deployed_model != nullptr && buf.ipc() > 1) {
    const float disc_norm = apply_feature_discrimination(ctx, active_rows);
    // Eq. (9) combines the two gradients with weight α. The raw scales of
    // the two terms differ by orders of magnitude in this substrate (the
    // summed per-row cosine distance produces much larger input gradients
    // than the contrastive loss), so we equalize the norms before applying
    // α — α then expresses the *relative* contribution of feature
    // discrimination, as the paper's sweep (Fig. 4b) assumes. See
    // DESIGN.md, "Key algorithmic decisions".
    if (disc_norm > 1e-12f && disc_scratch_.numel() == buf.grads().numel()) {
      const float match_norm = buf.grads().norm();
      const float scale = config_.alpha * step_scale *
          (match_norm > 1e-12f ? match_norm / disc_norm : 1.0f);
      buf.grads().add_scaled_(disc_scratch_, scale);
    }
    // Note `touched` stays equal to active_rows: the paper is explicit that
    // only synthetic samples of the active classes are updated in a segment
    // (Section III-B), so the contrastive pull on negative-class rows
    // shapes the gradient of the anchors but does not move those rows.
  }

  sgd_rows(buf, touched, config_.lr_syn * step_scale, config_.momentum_syn,
           velocity_);
  buf.clamp_pixels();
  return res.distance;
}

void DecoCondenser::save_state(std::ostream& os) const {
  write_rng_state(os, rng_.state());
  write_optional_tensor(os, velocity_);
  write_optional_tensor(os, velocity_labels_);
  DECO_CHECK(static_cast<bool>(os), "DecoCondenser::save_state: write failed");
}

void DecoCondenser::load_state(std::istream& is) {
  rng_.set_state(read_rng_state(is));
  velocity_ = read_optional_tensor(is);
  velocity_labels_ = read_optional_tensor(is);
}

float DecoCondenser::apply_feature_discrimination(
    const CondenseContext& ctx, const std::vector<int64_t>& active_rows) {
  SyntheticBuffer& buf = *ctx.buffer;
  // Negative classes are drawn from the condenser's own generator, not the
  // learner's: enabling/disabling feature discrimination must not perturb
  // the random stream of the rest of the pipeline (keeps α sweeps paired).
  Rng& rng = rng_;
  const int64_t cap = std::max<int64_t>(2, config_.contrastive_cap);

  // Anchors: active rows (capped per class). Negatives: one random other
  // class per anchor, with up to `cap` of its rows embedded.
  std::vector<int64_t> sel;           // buffer rows to embed
  std::unordered_set<int64_t> seen;
  auto push_row = [&](int64_t r) {
    if (seen.insert(r).second) sel.push_back(r);
  };

  std::vector<int64_t> anchors_rows;
  for (int64_t cls : *ctx.active_classes) {
    auto rows = buf.rows_of_class(cls);
    const int64_t take_n = std::min<int64_t>(cap, static_cast<int64_t>(rows.size()));
    for (int64_t k = 0; k < take_n; ++k) {
      anchors_rows.push_back(rows[static_cast<size_t>(k)]);
      push_row(rows[static_cast<size_t>(k)]);
    }
  }

  std::vector<int64_t> neg_class_of_anchor;
  neg_class_of_anchor.reserve(anchors_rows.size());
  for (int64_t r : anchors_rows) {
    const int64_t yi = buf.label(r);
    int64_t neg = rng.uniform_int(buf.num_classes());
    while (neg == yi) neg = rng.uniform_int(buf.num_classes());
    neg_class_of_anchor.push_back(neg);
    auto rows = buf.rows_of_class(neg);
    const int64_t take_n = std::min<int64_t>(cap, static_cast<int64_t>(rows.size()));
    for (int64_t k = 0; k < take_n; ++k) push_row(rows[static_cast<size_t>(k)]);
  }
  if (anchors_rows.empty()) {
    last_disc_rows_.clear();
    return 0.0f;
  }

  // Local index mapping.
  std::vector<int64_t> local_labels;
  local_labels.reserve(sel.size());
  for (int64_t r : sel) local_labels.push_back(buf.label(r));
  std::vector<int64_t> anchor_local;
  anchor_local.reserve(anchors_rows.size());
  for (int64_t r : anchors_rows) {
    const auto it = std::find(sel.begin(), sel.end(), r);
    anchor_local.push_back(std::distance(sel.begin(), it));
  }

  // Only ACTIVE rows receive gradient (Section III-B restricts updates to
  // the active classes); the other embedded rows only shape the loss. The
  // encoder treats every sample independently (conv, InstanceNorm, ReLU,
  // pooling; each GEMM output sums its k terms in ascending order whatever
  // the batch size), so the passive rows are embedded in a forward-only call
  // and the active rows in a second one, whose cached activations are then
  // the only ones back-propagated. Every embedding row, and so the loss, is
  // bitwise the same as from one batch in `sel` order.
  nn::ConvNet& model = *ctx.deployed_model;
  std::unordered_set<int64_t> active_set(active_rows.begin(), active_rows.end());
  std::vector<int64_t> active_pos, passive_pos;  // positions in sel
  for (size_t i = 0; i < sel.size(); ++i) {
    (active_set.count(sel[i]) != 0 ? active_pos : passive_pos)
        .push_back(static_cast<int64_t>(i));
  }
  const int64_t dim = model.feature_dim();
  Tensor emb({static_cast<int64_t>(sel.size()), dim});
  auto embed_at = [&](const std::vector<int64_t>& pos) {
    std::vector<int64_t> rows;
    rows.reserve(pos.size());
    for (int64_t p : pos) rows.push_back(sel[static_cast<size_t>(p)]);
    const Tensor e = model.embed(buf.gather(rows));
    for (size_t k = 0; k < pos.size(); ++k) {
      std::copy(e.data() + static_cast<int64_t>(k) * dim,
                e.data() + static_cast<int64_t>(k + 1) * dim,
                emb.data() + pos[k] * dim);
    }
  };
  if (!passive_pos.empty()) embed_at(passive_pos);
  embed_at(active_pos);  // anchors are active rows, so never empty
  auto disc = nn::feature_discrimination_loss(emb, local_labels, anchor_local,
                                              neg_class_of_anchor, config_.tau);
  const Tensor input_grads =
      model.backward_from_embedding(take(disc.grad_embeddings, active_pos));

  // Stage the discrimination gradient separately so the caller can equalize
  // its scale against the matching gradient before weighting by α.
  if (disc_scratch_.numel() != buf.grads().numel())
    disc_scratch_ = Tensor(buf.grads().shape());
  disc_scratch_.zero();
  const int64_t per = buf.channels() * buf.height() * buf.width();
  const float* src = input_grads.data();
  float* dst = disc_scratch_.data();
  for (size_t k = 0; k < active_pos.size(); ++k) {
    const int64_t r = sel[static_cast<size_t>(active_pos[k])];
    std::copy(src + static_cast<int64_t>(k) * per,
              src + static_cast<int64_t>(k + 1) * per, dst + r * per);
  }
  last_disc_rows_ = std::move(sel);
  return disc_scratch_.norm();
}

// ---- DC / DSA -------------------------------------------------------------------

BilevelCondenser::BilevelCondenser(const nn::ConvNetConfig& model_config,
                                   BilevelConfig config, uint64_t seed)
    : config_(config), rng_(seed), aug_(config.dsa_strategy) {
  scratch_ = std::make_unique<nn::ConvNet>(model_config, rng_);
}

void BilevelCondenser::condense(const CondenseContext& ctx) {
  DECO_TRACE_SCOPE("condense/bilevel");
  validate_context(ctx);
  SyntheticBuffer& buf = *ctx.buffer;
  ensure_velocity(velocity_, buf);
  if (ctx.active_classes->empty() || ctx.x_real->dim(0) == 0) return;

  const std::vector<float> w_real =
      ctx.w_real != nullptr ? *ctx.w_real : std::vector<float>{};

  for (int64_t k = 0; k < config_.outer_loops; ++k) {
    scratch_->reinitialize(rng_);
    nn::SgdMomentum opt_model(*scratch_, config_.lr_model, 0.9f, 5e-4f);

    for (int64_t t = 0; t < config_.inner_epochs; ++t) {
      // Per-class matching, as in the original DC/DSA algorithms. The class
      // steps only touch their own buffer rows (plus an idempotent clamp),
      // so the matching passes fan out across the pool, each on its own
      // clone of the re-randomized scratch model. Augmentation params are
      // drawn serially first in class order (fixed rng stream) and the
      // buffer updates are applied serially in ascending class order —
      // bitwise identical for every thread count.
      struct ClassWork {
        std::vector<int64_t> rows;
        std::vector<int64_t> y_syn;
        Tensor x_syn;
        Tensor x_real_c;
        std::vector<int64_t> y_real_c;
        std::vector<float> w_real_c;
        augment::AugmentParams params;
        Tensor grad;  // filled by the parallel matching stage
        bool valid = false;
      };
      const int64_t n_cls = static_cast<int64_t>(ctx.active_classes->size());
      std::vector<ClassWork> work(static_cast<size_t>(n_cls));
      for (int64_t ci = 0; ci < n_cls; ++ci) {
        ClassWork& cw = work[static_cast<size_t>(ci)];
        const int64_t cls = (*ctx.active_classes)[static_cast<size_t>(ci)];
        const std::vector<int64_t> real_idx =
            real_indices_of_class(*ctx.y_real, cls);
        if (real_idx.empty()) continue;
        cw.rows = buf.rows_of_class(cls);
        cw.x_syn = buf.gather(cw.rows);
        cw.y_syn = buf.gather_labels(cw.rows);
        cw.x_real_c = take(*ctx.x_real, real_idx);
        cw.y_real_c = take_labels(*ctx.y_real, real_idx);
        cw.w_real_c = take_weights(w_real, real_idx);
        if (aug_.enabled())
          cw.params = aug_.sample(rng_, cw.x_syn.dim(2), cw.x_syn.dim(3));
        cw.valid = true;
      }
      core::parallel_for(0, n_cls, 1, [&](int64_t c0, int64_t c1) {
        for (int64_t ci = c0; ci < c1; ++ci) {
          ClassWork& cw = work[static_cast<size_t>(ci)];
          if (!cw.valid) continue;
          DECO_TRACE_SCOPE("condense/class_match");
          std::unique_ptr<nn::ConvNet> local = nn::clone_convnet(*scratch_);
          GradientMatcher m(*local, config_.fd_scale);
          MatchResult res =
              aug_.enabled()
                  ? m.match_with_params(cw.x_syn, cw.y_syn, cw.x_real_c,
                                        cw.y_real_c, cw.w_real_c, aug_,
                                        cw.params)
                  : m.match(cw.x_syn, cw.y_syn, cw.x_real_c, cw.y_real_c,
                            cw.w_real_c);
          rms_normalize(res.grad_syn);
          cw.grad = std::move(res.grad_syn);
        }
      });
      for (int64_t ci = 0; ci < n_cls; ++ci) {
        ClassWork& cw = work[static_cast<size_t>(ci)];
        if (!cw.valid) continue;
        buf.grads().zero();
        buf.scatter_add_grad(cw.rows, cw.grad, 1.0f);
        sgd_rows(buf, cw.rows, config_.lr_syn, config_.momentum_syn,
                 velocity_);
        buf.clamp_pixels();
      }

      // Inner-loop model training on S — the bilevel step DECO removes.
      for (int64_t s = 0; s < config_.model_steps; ++s) {
        const int64_t batch_n = std::min<int64_t>(32, buf.size());
        std::vector<int64_t> rows =
            ctx.rng->sample_without_replacement(buf.size(), batch_n);
        Tensor xb = buf.gather(rows);
        if (aug_.enabled()) {
          const auto p = aug_.sample(rng_, xb.dim(2), xb.dim(3));
          xb = aug_.forward(xb, p);
        }
        const std::vector<int64_t> yb = buf.gather_labels(rows);
        scratch_->zero_grad();
        Tensor logits = scratch_->forward(xb);
        auto ce = nn::weighted_cross_entropy(logits, yb);
        scratch_->backward(ce.grad_logits, nn::GradNeed::kParams);
        opt_model.step();
        scratch_->zero_grad();
      }
    }
  }
}

// ---- DM ---------------------------------------------------------------------------

DmCondenser::DmCondenser(const nn::ConvNetConfig& model_config, DmConfig config,
                         uint64_t seed)
    : config_(config), rng_(seed) {
  scratch_ = std::make_unique<nn::ConvNet>(model_config, rng_);
}

void DmCondenser::condense(const CondenseContext& ctx) {
  DECO_TRACE_SCOPE("condense/dm");
  validate_context(ctx);
  SyntheticBuffer& buf = *ctx.buffer;
  ensure_velocity(velocity_, buf);
  if (ctx.active_classes->empty() || ctx.x_real->dim(0) == 0) return;

  for (int64_t l = 0; l < config_.iterations; ++l) {
    scratch_->reinitialize(rng_);
    // Per-class mean-matching under the same random encoder. Each class task
    // embeds and backprops on its own clone of the encoder, so the classes
    // fan out across the pool; updates are applied serially in ascending
    // class order, keeping results bitwise identical for every thread count.
    struct ClassWork {
      std::vector<int64_t> rows;
      Tensor x_real_c;
      Tensor x_syn;
      Tensor grad;  // filled by the parallel stage
      bool valid = false;
    };
    const int64_t n_cls = static_cast<int64_t>(ctx.active_classes->size());
    std::vector<ClassWork> work(static_cast<size_t>(n_cls));
    for (int64_t ci = 0; ci < n_cls; ++ci) {
      ClassWork& cw = work[static_cast<size_t>(ci)];
      const int64_t cls = (*ctx.active_classes)[static_cast<size_t>(ci)];
      const std::vector<int64_t> real_idx =
          real_indices_of_class(*ctx.y_real, cls);
      if (real_idx.empty()) continue;
      cw.rows = buf.rows_of_class(cls);
      cw.x_real_c = take(*ctx.x_real, real_idx);
      cw.x_syn = buf.gather(cw.rows);
      cw.valid = true;
    }
    core::parallel_for(0, n_cls, 1, [&](int64_t c0, int64_t c1) {
      for (int64_t ci = c0; ci < c1; ++ci) {
        ClassWork& cw = work[static_cast<size_t>(ci)];
        if (!cw.valid) continue;
        DECO_TRACE_SCOPE("condense/class_embed");
        std::unique_ptr<nn::ConvNet> local = nn::clone_convnet(*scratch_);

        // Class-mean embedding of the real data under the random encoder.
        Tensor emb_real = local->embed(cw.x_real_c);
        const int64_t d = emb_real.dim(1);
        const int64_t n_real = emb_real.dim(0);
        Tensor mean_real({d});
        for (int64_t i = 0; i < n_real; ++i)
          for (int64_t j = 0; j < d; ++j) mean_real[j] += emb_real.at2(i, j);
        mean_real.scale_(1.0f / static_cast<float>(n_real));

        Tensor emb_syn = local->embed(cw.x_syn);
        const int64_t n_syn = emb_syn.dim(0);
        Tensor mean_syn({d});
        for (int64_t i = 0; i < n_syn; ++i)
          for (int64_t j = 0; j < d; ++j) mean_syn[j] += emb_syn.at2(i, j);
        mean_syn.scale_(1.0f / static_cast<float>(n_syn));

        // L = ‖mean_syn − mean_real‖²; dL/demb_syn[i] = 2·diff/n_syn.
        Tensor diff = mean_syn - mean_real;
        Tensor grad_emb({n_syn, d});
        const float scale = 2.0f / static_cast<float>(n_syn);
        for (int64_t i = 0; i < n_syn; ++i)
          for (int64_t j = 0; j < d; ++j) grad_emb.at2(i, j) = scale * diff[j];

        Tensor input_grads = local->backward_from_embedding(grad_emb);
        rms_normalize(input_grads);
        cw.grad = std::move(input_grads);
      }
    });
    for (int64_t ci = 0; ci < n_cls; ++ci) {
      ClassWork& cw = work[static_cast<size_t>(ci)];
      if (!cw.valid) continue;
      buf.grads().zero();
      buf.scatter_add_grad(cw.rows, cw.grad, 1.0f);
      sgd_rows(buf, cw.rows, config_.lr_syn, config_.momentum_syn, velocity_);
      buf.clamp_pixels();
    }
  }
}

}  // namespace deco::condense
