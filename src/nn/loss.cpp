#include "deco/nn/loss.h"

#include <cmath>

#include "deco/tensor/check.h"
#include "deco/tensor/ops.h"

namespace deco::nn {

CrossEntropyResult weighted_cross_entropy(const Tensor& logits,
                                          const std::vector<int64_t>& labels,
                                          const std::vector<float>& weights) {
  DECO_CHECK(logits.ndim() == 2, "weighted_cross_entropy: logits must be 2-D");
  const int64_t n = logits.dim(0), c = logits.dim(1);
  DECO_CHECK(static_cast<int64_t>(labels.size()) == n,
             "weighted_cross_entropy: label count mismatch");
  DECO_CHECK(weights.empty() || static_cast<int64_t>(weights.size()) == n,
             "weighted_cross_entropy: weight count mismatch");

  Tensor logp;
  log_softmax_rows_into(logits, logp);

  CrossEntropyResult res;
  res.grad_logits = Tensor({n, c});
  float* pg = res.grad_logits.data();
  const float* plp = logp.data();
  const float inv_n = 1.0f / static_cast<float>(n);

  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t y = labels[static_cast<size_t>(i)];
    DECO_CHECK(y >= 0 && y < c, "weighted_cross_entropy: label out of range");
    const float w = weights.empty() ? 1.0f : weights[static_cast<size_t>(i)];
    loss -= static_cast<double>(w) * plp[i * c + y];
    const float scale = w * inv_n;
    for (int64_t j = 0; j < c; ++j) {
      // d/dlogit_j of -w·logp_y = w·(softmax_j - 1{j==y})
      pg[i * c + j] = scale * (std::exp(plp[i * c + j]) - (j == y ? 1.0f : 0.0f));
    }
  }
  res.loss = static_cast<float>(loss) * inv_n;
  return res;
}

ContrastiveResult feature_discrimination_loss(
    const Tensor& embeddings, const std::vector<int64_t>& labels,
    const std::vector<int64_t>& anchor_index,
    const std::vector<int64_t>& negative_class_of_anchor, float temperature) {
  DECO_CHECK(embeddings.ndim() == 2, "feature_discrimination: 2-D embeddings");
  const int64_t m = embeddings.dim(0), d = embeddings.dim(1);
  DECO_CHECK(static_cast<int64_t>(labels.size()) == m,
             "feature_discrimination: label count mismatch");
  DECO_CHECK(anchor_index.size() == negative_class_of_anchor.size(),
             "feature_discrimination: anchor/negative size mismatch");
  DECO_CHECK(temperature > 0.0f, "feature_discrimination: temperature must be > 0");

  // L2-normalize embeddings: z_i = e_i / max(||e_i||, eps). Gradients are
  // accumulated on z first, then mapped back through the normalization.
  constexpr float kEps = 1e-8f;
  Tensor z({m, d});
  std::vector<float> norms(static_cast<size_t>(m));
  {
    const float* pe = embeddings.data();
    float* pz = z.data();
    for (int64_t i = 0; i < m; ++i) {
      double sq = 0.0;
      for (int64_t j = 0; j < d; ++j)
        sq += static_cast<double>(pe[i * d + j]) * pe[i * d + j];
      const float nrm = std::max(static_cast<float>(std::sqrt(sq)), kEps);
      norms[static_cast<size_t>(i)] = nrm;
      const float inv = 1.0f / nrm;
      for (int64_t j = 0; j < d; ++j) pz[i * d + j] = pe[i * d + j] * inv;
    }
  }

  Tensor grad_z({m, d});
  const float* pz = z.data();
  float* pgz = grad_z.data();
  const float inv_tau = 1.0f / temperature;

  // Anchors whose positive or negative set is empty contribute nothing; we
  // average the remaining anchors so the loss scale is independent of how
  // many classes happen to be active in a segment.
  int64_t live_anchors = 0;
  double total = 0.0;

  for (size_t a = 0; a < anchor_index.size(); ++a) {
    const int64_t i = anchor_index[a];
    DECO_CHECK(i >= 0 && i < m, "feature_discrimination: anchor out of range");
    const int64_t yi = labels[static_cast<size_t>(i)];
    const int64_t neg_class = negative_class_of_anchor[a];
    DECO_CHECK(neg_class != yi,
               "feature_discrimination: negative class equals anchor class");

    std::vector<int64_t> pos, neg;
    for (int64_t j = 0; j < m; ++j) {
      if (j != i && labels[static_cast<size_t>(j)] == yi) pos.push_back(j);
      if (labels[static_cast<size_t>(j)] == neg_class) neg.push_back(j);
    }
    if (pos.empty() || neg.empty()) continue;
    ++live_anchors;

    const float* zi = pz + i * d;

    // Negative logsumexp: LSE = log Σ_n exp(z_i·z_n / τ), with softmax
    // coefficients reused for the gradient.
    std::vector<float> neg_sim(neg.size());
    float mx = -1e30f;
    for (size_t k = 0; k < neg.size(); ++k) {
      const float* zn = pz + neg[k] * d;
      double s = 0.0;
      for (int64_t j = 0; j < d; ++j) s += static_cast<double>(zi[j]) * zn[j];
      neg_sim[k] = static_cast<float>(s) * inv_tau;
      mx = std::max(mx, neg_sim[k]);
    }
    double sum_exp = 0.0;
    for (float s : neg_sim) sum_exp += std::exp(static_cast<double>(s) - mx);
    const double lse = mx + std::log(sum_exp);

    const float inv_pos = 1.0f / static_cast<float>(pos.size());

    // Loss for this anchor: Σ_p [ -s_ip/τ + LSE ] / |P|
    double pos_mean_sim = 0.0;
    for (int64_t p : pos) {
      const float* zp = pz + p * d;
      double s = 0.0;
      for (int64_t j = 0; j < d; ++j) s += static_cast<double>(zi[j]) * zp[j];
      pos_mean_sim += s * inv_tau;
      // d/ds_ip = -1/(|P|·τ)  →  grads on z_i and z_p
      const float coef = -inv_pos * inv_tau;
      float* gi = pgz + i * d;
      float* gp = pgz + p * d;
      for (int64_t j = 0; j < d; ++j) {
        gi[j] += coef * zp[j];
        gp[j] += coef * zi[j];
      }
    }
    pos_mean_sim *= inv_pos;
    total += -pos_mean_sim + lse;

    // LSE gradient: softmax over negatives, divided by τ.
    for (size_t k = 0; k < neg.size(); ++k) {
      const float soft =
          static_cast<float>(std::exp(static_cast<double>(neg_sim[k]) - mx) / sum_exp);
      const float coef = soft * inv_tau;
      const float* zn = pz + neg[k] * d;
      float* gi = pgz + i * d;
      float* gn = pgz + neg[k] * d;
      for (int64_t j = 0; j < d; ++j) {
        gi[j] += coef * zn[j];
        gn[j] += coef * zi[j];
      }
    }
  }

  ContrastiveResult res;
  res.grad_embeddings = Tensor({m, d});
  if (live_anchors == 0) {
    res.loss = 0.0f;
    return res;
  }
  const float inv_live = 1.0f / static_cast<float>(live_anchors);
  res.loss = static_cast<float>(total) * inv_live;
  grad_z.scale_(inv_live);

  // Map dL/dz back to dL/de through z = e/||e||:
  //   dL/de = (dL/dz − z·(z ⋅ dL/dz)) / ||e||
  float* pge = res.grad_embeddings.data();
  const float* pgzc = grad_z.data();
  for (int64_t i = 0; i < m; ++i) {
    const float* zi = pz + i * d;
    const float* gz = pgzc + i * d;
    double zdot = 0.0;
    for (int64_t j = 0; j < d; ++j) zdot += static_cast<double>(zi[j]) * gz[j];
    const float inv_nrm = 1.0f / norms[static_cast<size_t>(i)];
    for (int64_t j = 0; j < d; ++j)
      pge[i * d + j] = (gz[j] - zi[j] * static_cast<float>(zdot)) * inv_nrm;
  }
  return res;
}

SoftCrossEntropyResult soft_cross_entropy(const Tensor& logits,
                                          const Tensor& targets,
                                          const std::vector<float>& weights) {
  DECO_CHECK(logits.ndim() == 2, "soft_cross_entropy: logits must be 2-D");
  DECO_CHECK(targets.same_shape(logits),
             "soft_cross_entropy: target shape mismatch " + targets.shape_str());
  const int64_t n = logits.dim(0), c = logits.dim(1);
  DECO_CHECK(weights.empty() || static_cast<int64_t>(weights.size()) == n,
             "soft_cross_entropy: weight count mismatch");

  Tensor logp;
  log_softmax_rows_into(logits, logp);

  SoftCrossEntropyResult res;
  res.grad_logits = Tensor({n, c});
  res.grad_targets = Tensor({n, c});
  const float* plp = logp.data();
  const float* pq = targets.data();
  float* pgl = res.grad_logits.data();
  float* pgt = res.grad_targets.data();
  const float inv_n = 1.0f / static_cast<float>(n);

  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const float w = weights.empty() ? 1.0f : weights[static_cast<size_t>(i)];
    const float scale = w * inv_n;
    double qsum = 0.0;
    for (int64_t j = 0; j < c; ++j) {
      loss -= static_cast<double>(w) * pq[i * c + j] * plp[i * c + j];
      qsum += pq[i * c + j];
      pgt[i * c + j] = -scale * plp[i * c + j];
    }
    // d/dz_j of −Σ_k q_k·logp_k = p_j·Σ_k q_k − q_j.
    for (int64_t j = 0; j < c; ++j) {
      pgl[i * c + j] = scale * (std::exp(plp[i * c + j]) *
                                    static_cast<float>(qsum) -
                                pq[i * c + j]);
    }
  }
  res.loss = static_cast<float>(loss) * inv_n;
  return res;
}

}  // namespace deco::nn
