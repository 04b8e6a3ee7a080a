#include "deco/tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "deco/core/telemetry.h"
#include "deco/core/thread_pool.h"
#include "deco/tensor/check.h"
#include "deco/tensor/gemm.h"

namespace deco {

namespace {
void ensure_shape(Tensor& t, std::vector<int64_t> shape) {
  int64_t n = 1;
  for (int64_t d : shape) n *= d;
  if (t.numel() == n) {
    t.reshape(std::move(shape));
  } else {
    t = Tensor(std::move(shape));
  }
}

void check_acc_shape(const Tensor& out, int64_t m, int64_t n, const char* op) {
  DECO_CHECK(out.ndim() == 2 && out.dim(0) == m && out.dim(1) == n,
             std::string(op) + ": accumulator shape " + out.shape_str() +
                 " does not match result");
}

// The geometry of a convolution over `batch` samples as a GEMM operand,
// with no input attached.
detail::ConvOperand conv_operand(const Conv2dGeometry& g, int64_t batch,
                                 const char* op) {
  DECO_CHECK(g.out_h() > 0 && g.out_w() > 0,
             std::string(op) + ": kernel larger than the padded input");
  detail::ConvOperand b;
  b.batch = batch;
  b.channels = g.in_channels;
  b.padded_h = g.in_h + 2 * g.padding;
  b.padded_w = g.in_w + 2 * g.padding;
  b.padding = g.padding;
  b.kernel_h = g.kernel_h;
  b.kernel_w = g.kernel_w;
  b.stride = g.stride;
  b.out_h = g.out_h();
  b.out_w = g.out_w();
  return b;
}

// The implicit im2col matrix of `padded` (a pad_into() result) as a GEMM
// operand, after checking `padded` against the geometry.
detail::ConvOperand conv_operand(const Tensor& padded, const Conv2dGeometry& g,
                                 const char* op) {
  DECO_CHECK(padded.ndim() == 4 && padded.dim(1) == g.in_channels &&
                 padded.dim(2) == g.in_h + 2 * g.padding &&
                 padded.dim(3) == g.in_w + 2 * g.padding,
             std::string(op) + ": padded input " + padded.shape_str() +
                 " disagrees with geometry");
  detail::ConvOperand b = conv_operand(g, padded.dim(0), op);
  b.padded = padded.data();
  return b;
}

// Checks that `grad` is the NCHW gradient of a convolution's output.
void check_conv_grad(const Tensor& grad, const detail::ConvOperand& b,
                     int64_t out_channels, const char* op) {
  DECO_CHECK(grad.ndim() == 4 && grad.dim(0) == b.batch &&
                 grad.dim(1) == out_channels && grad.dim(2) == b.out_h &&
                 grad.dim(3) == b.out_w,
             std::string(op) + ": grad " + grad.shape_str() +
                 " disagrees with geometry");
}

// Rows per parallel chunk, sized so a chunk carries ~64k scalar ops: small
// kernels collapse to one chunk (pure serial, no dispatch overhead), large
// ones split into enough chunks to load every worker. The grain is a pure
// function of the problem shape — never of the thread count — which is what
// keeps chunked reductions bitwise deterministic (see thread_pool.h).
int64_t row_grain(int64_t work_per_row) {
  constexpr int64_t kChunkWork = 1 << 16;
  return std::max<int64_t>(1, kChunkWork / std::max<int64_t>(1, work_per_row));
}
}  // namespace

// The three matmul variants all lower onto detail::gemm_strided, which packs
// the operands and runs the blocked kernel. No zero-skip shortcuts: every
// product is computed, so a 0 in A against an Inf/NaN in B yields NaN as
// IEEE demands (a previous `if (aik == 0) continue` masked exactly the
// non-finite values core::NumericGuard exists to catch).

void matmul_into(const Tensor& a, const Tensor& b, Tensor& out) {
  DECO_CHECK(a.ndim() == 2 && b.ndim() == 2, "matmul: inputs must be 2-D");
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  DECO_CHECK(b.dim(0) == k, "matmul: inner dims differ: " + a.shape_str() +
                                " x " + b.shape_str());
  ensure_shape(out, {m, n});
  detail::gemm_strided(m, n, k, a.data(), k, 1, b.data(), n, 1, out.data(),
                       /*accumulate=*/false);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor out;
  matmul_into(a, b, out);
  return out;
}

void matmul_tn_into(const Tensor& a, const Tensor& b, Tensor& out) {
  DECO_CHECK(a.ndim() == 2 && b.ndim() == 2, "matmul_tn: inputs must be 2-D");
  const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  DECO_CHECK(b.dim(0) == k, "matmul_tn: leading dims differ: " + a.shape_str() +
                                " vs " + b.shape_str());
  ensure_shape(out, {m, n});
  detail::gemm_strided(m, n, k, a.data(), 1, m, b.data(), n, 1, out.data(),
                       /*accumulate=*/false);
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  Tensor out;
  matmul_tn_into(a, b, out);
  return out;
}

void matmul_tn_acc_into(const Tensor& a, const Tensor& b, Tensor& out) {
  DECO_CHECK(a.ndim() == 2 && b.ndim() == 2, "matmul_tn_acc: inputs must be 2-D");
  const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  DECO_CHECK(b.dim(0) == k, "matmul_tn_acc: leading dims differ: " +
                                a.shape_str() + " vs " + b.shape_str());
  check_acc_shape(out, m, n, "matmul_tn_acc");
  detail::gemm_strided(m, n, k, a.data(), 1, m, b.data(), n, 1, out.data(),
                       /*accumulate=*/true);
}

void matmul_nt_into(const Tensor& a, const Tensor& b, Tensor& out) {
  DECO_CHECK(a.ndim() == 2 && b.ndim() == 2, "matmul_nt: inputs must be 2-D");
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  DECO_CHECK(b.dim(1) == k, "matmul_nt: trailing dims differ: " + a.shape_str() +
                                " vs " + b.shape_str());
  ensure_shape(out, {m, n});
  detail::gemm_strided(m, n, k, a.data(), k, 1, b.data(), 1, k, out.data(),
                       /*accumulate=*/false);
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  Tensor out;
  matmul_nt_into(a, b, out);
  return out;
}

void matmul_nt_acc_into(const Tensor& a, const Tensor& b, Tensor& out) {
  DECO_CHECK(a.ndim() == 2 && b.ndim() == 2, "matmul_nt_acc: inputs must be 2-D");
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  DECO_CHECK(b.dim(1) == k, "matmul_nt_acc: trailing dims differ: " +
                                a.shape_str() + " vs " + b.shape_str());
  check_acc_shape(out, m, n, "matmul_nt_acc");
  detail::gemm_strided(m, n, k, a.data(), k, 1, b.data(), 1, k, out.data(),
                       /*accumulate=*/true);
}

void transpose2d_into(const Tensor& in, Tensor& out) {
  DECO_CHECK(in.ndim() == 2, "transpose2d: input must be 2-D");
  const int64_t r = in.dim(0), c = in.dim(1);
  ensure_shape(out, {c, r});
  const float* pi = in.data();
  float* po = out.data();
  for (int64_t i = 0; i < r; ++i)
    for (int64_t j = 0; j < c; ++j) po[j * r + i] = pi[i * c + j];
}

Tensor transpose2d(const Tensor& in) {
  Tensor out;
  transpose2d_into(in, out);
  return out;
}

void im2col_into(const Tensor& input, const Conv2dGeometry& g, Tensor& cols) {
  DECO_CHECK(input.ndim() == 4, "im2col: input must be NCHW");
  const int64_t N = input.dim(0);
  DECO_CHECK(input.dim(1) == g.in_channels && input.dim(2) == g.in_h &&
                 input.dim(3) == g.in_w,
             "im2col: input " + input.shape_str() + " disagrees with geometry");
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t rows = g.col_rows();
  const int64_t cols_per_sample = oh * ow;
  ensure_shape(cols, {rows, N * cols_per_sample});
  const float* pi = input.data();
  float* pc = cols.data();
  const int64_t total_cols = N * cols_per_sample;

  // Each (c, ky, kx) triple owns one disjoint output row of `cols`.
  core::parallel_for(0, rows, row_grain(total_cols), [&](int64_t r0, int64_t r1) {
    for (int64_t row = r0; row < r1; ++row) {
      const int64_t kx = row % g.kernel_w;
      const int64_t ky = (row / g.kernel_w) % g.kernel_h;
      const int64_t c = row / (g.kernel_w * g.kernel_h);
      float* out_row = pc + row * total_cols;
      for (int64_t n = 0; n < N; ++n) {
        const float* img = pi + (n * g.in_channels + c) * g.in_h * g.in_w;
        float* dst = out_row + n * cols_per_sample;
        for (int64_t oy = 0; oy < oh; ++oy) {
          const int64_t iy = oy * g.stride + ky - g.padding;
          if (iy < 0 || iy >= g.in_h) {
            std::fill(dst + oy * ow, dst + (oy + 1) * ow, 0.0f);
            continue;
          }
          const float* src_row = img + iy * g.in_w;
          for (int64_t ox = 0; ox < ow; ++ox) {
            const int64_t ix = ox * g.stride + kx - g.padding;
            dst[oy * ow + ox] = (ix >= 0 && ix < g.in_w) ? src_row[ix] : 0.0f;
          }
        }
      }
    }
  });
}

void col2im_into(const Tensor& cols, const Conv2dGeometry& g, Tensor& grad_input) {
  DECO_CHECK(grad_input.ndim() == 4, "col2im: grad_input must be NCHW");
  const int64_t N = grad_input.dim(0);
  DECO_CHECK(grad_input.dim(1) == g.in_channels && grad_input.dim(2) == g.in_h &&
                 grad_input.dim(3) == g.in_w,
             "col2im: grad_input disagrees with geometry");
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t total_cols = N * oh * ow;
  DECO_CHECK(cols.ndim() == 2 && cols.dim(0) == g.col_rows() &&
                 cols.dim(1) == total_cols,
             "col2im: cols shape " + cols.shape_str() + " disagrees with geometry");
  grad_input.zero();
  for (int64_t c = 0; c < g.in_channels; ++c) {
    for (int64_t n = 0; n < N; ++n) {
      float* img = grad_input.data() + (n * g.in_channels + c) * g.in_h * g.in_w;
      for (int64_t ky = 0; ky < g.kernel_h; ++ky) {
        for (int64_t kx = 0; kx < g.kernel_w; ++kx) {
          const int64_t row = (c * g.kernel_h + ky) * g.kernel_w + kx;
          const float* src = cols.data() + row * total_cols + n * oh * ow;
          for (int64_t oy = 0; oy < oh; ++oy) {
            const int64_t iy = oy * g.stride + ky - g.padding;
            if (iy < 0 || iy >= g.in_h) continue;
            for (int64_t ox = 0; ox < ow; ++ox) {
              const int64_t ix = ox * g.stride + kx - g.padding;
              if (ix >= 0 && ix < g.in_w) img[iy * g.in_w + ix] += src[oy * ow + ox];
            }
          }
        }
      }
    }
  }
}

void pad_into(const Tensor& input, const Conv2dGeometry& g, Tensor& padded) {
  DECO_CHECK(input.ndim() == 4 && input.dim(1) == g.in_channels &&
                 input.dim(2) == g.in_h && input.dim(3) == g.in_w,
             "pad: input " + input.shape_str() + " disagrees with geometry");
  DECO_TRACE_SCOPE("tensor/conv_pad");
  const int64_t N = input.dim(0), H = g.in_h, W = g.in_w, p = g.padding;
  const int64_t Hp = H + 2 * p, Wp = W + 2 * p;
  ensure_shape(padded, {N, g.in_channels, Hp, Wp});
  const float* pi = input.data();
  float* pp = padded.data();
  // Every plane is rewritten whole, border included, so a reused buffer
  // never carries stale values into the border. Planes are disjoint.
  core::parallel_for(0, N * g.in_channels, row_grain(Hp * Wp),
                     [&](int64_t p0, int64_t p1) {
    for (int64_t plane = p0; plane < p1; ++plane) {
      const float* src = pi + plane * H * W;
      float* dst = pp + plane * Hp * Wp;
      std::fill(dst, dst + p * Wp, 0.0f);
      for (int64_t y = 0; y < H; ++y) {
        float* row = dst + (p + y) * Wp;
        std::fill(row, row + p, 0.0f);
        std::copy(src + y * W, src + (y + 1) * W, row + p);
        std::fill(row + p + W, row + Wp, 0.0f);
      }
      std::fill(dst + (p + H) * Wp, dst + Hp * Wp, 0.0f);
    }
  });
}

void conv_forward_into(const Tensor& weight, const Tensor& bias,
                       const Tensor& padded, const Conv2dGeometry& g,
                       Tensor& out) {
  const detail::ConvOperand b = conv_operand(padded, g, "conv_forward");
  DECO_CHECK(weight.ndim() == 2 && weight.dim(1) == b.rows(),
             "conv_forward: weight " + weight.shape_str() +
                 " disagrees with geometry");
  const int64_t m = weight.dim(0);
  DECO_CHECK(bias.ndim() == 1 && bias.dim(0) == m,
             "conv_forward: bias " + bias.shape_str() + " disagrees with weight");
  ensure_shape(out, {b.batch, m, b.out_h, b.out_w});
  detail::gemm_conv(m, weight.data(), bias.data(), b, out.data());
}

void conv_weight_grad_acc_into(const Tensor& grad, const Tensor& padded,
                               const Conv2dGeometry& g, Tensor& dw) {
  const detail::ConvOperand b = conv_operand(padded, g, "conv_weight_grad");
  DECO_CHECK(grad.ndim() == 4, "conv_weight_grad: grad must be NCHW");
  const int64_t m = grad.dim(1);
  check_conv_grad(grad, b, m, "conv_weight_grad");
  check_acc_shape(dw, m, b.rows(), "conv_weight_grad");
  detail::gemm_conv_nt(m, grad.data(), b, dw.data());
}

void conv_input_grad_into(const Tensor& weight, const Tensor& grad,
                          const Conv2dGeometry& g, Tensor& grad_input) {
  DECO_CHECK(grad.ndim() == 4, "conv_input_grad: grad must be NCHW");
  const detail::ConvOperand b = conv_operand(g, grad.dim(0), "conv_input_grad");
  DECO_CHECK(weight.ndim() == 2 && weight.dim(1) == b.rows(),
             "conv_input_grad: weight " + weight.shape_str() +
                 " disagrees with geometry");
  const int64_t m = weight.dim(0);
  check_conv_grad(grad, b, m, "conv_input_grad");
  ensure_shape(grad_input, {b.batch, g.in_channels, g.in_h, g.in_w});
  detail::gemm_conv_dx(m, weight.data(), grad.data(), b, grad_input.data());
}

void softmax_rows_into(const Tensor& logits, Tensor& probs) {
  DECO_CHECK(logits.ndim() == 2, "softmax_rows: input must be 2-D");
  const int64_t r = logits.dim(0), c = logits.dim(1);
  ensure_shape(probs, {r, c});
  const float* pl = logits.data();
  float* pp = probs.data();
  core::parallel_for(0, r, row_grain(4 * c), [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const float* in = pl + i * c;
      float* out = pp + i * c;
      float mx = in[0];
      for (int64_t j = 1; j < c; ++j) mx = std::max(mx, in[j]);
      double sum = 0.0;
      for (int64_t j = 0; j < c; ++j) {
        out[j] = std::exp(in[j] - mx);
        sum += out[j];
      }
      const float inv = static_cast<float>(1.0 / sum);
      for (int64_t j = 0; j < c; ++j) out[j] *= inv;
    }
  });
}

Tensor softmax_rows(const Tensor& logits) {
  Tensor out;
  softmax_rows_into(logits, out);
  return out;
}

void log_softmax_rows_into(const Tensor& logits, Tensor& out) {
  DECO_CHECK(logits.ndim() == 2, "log_softmax_rows: input must be 2-D");
  const int64_t r = logits.dim(0), c = logits.dim(1);
  ensure_shape(out, {r, c});
  const float* pl = logits.data();
  float* po = out.data();
  core::parallel_for(0, r, row_grain(4 * c), [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const float* in = pl + i * c;
      float* o = po + i * c;
      float mx = in[0];
      for (int64_t j = 1; j < c; ++j) mx = std::max(mx, in[j]);
      double sum = 0.0;
      for (int64_t j = 0; j < c; ++j)
        sum += std::exp(static_cast<double>(in[j]) - mx);
      const float lse = mx + static_cast<float>(std::log(sum));
      for (int64_t j = 0; j < c; ++j) o[j] = in[j] - lse;
    }
  });
}

std::vector<int64_t> argmax_rows(const Tensor& t) {
  DECO_CHECK(t.ndim() == 2, "argmax_rows: input must be 2-D");
  const int64_t r = t.dim(0), c = t.dim(1);
  std::vector<int64_t> out(static_cast<size_t>(r));
  const float* p = t.data();
  for (int64_t i = 0; i < r; ++i) {
    const float* rowp = p + i * c;
    out[static_cast<size_t>(i)] =
        std::distance(rowp, std::max_element(rowp, rowp + c));
  }
  return out;
}

std::vector<float> max_rows(const Tensor& t) {
  DECO_CHECK(t.ndim() == 2, "max_rows: input must be 2-D");
  const int64_t r = t.dim(0), c = t.dim(1);
  std::vector<float> out(static_cast<size_t>(r));
  const float* p = t.data();
  for (int64_t i = 0; i < r; ++i)
    out[static_cast<size_t>(i)] = *std::max_element(p + i * c, p + (i + 1) * c);
  return out;
}

float cosine_similarity(const Tensor& a, const Tensor& b) {
  const float na = a.norm(), nb = b.norm();
  if (na < 1e-12f || nb < 1e-12f) return 0.0f;
  return dot(a, b) / (na * nb);
}

Tensor row(const Tensor& t, int64_t r) {
  DECO_CHECK(t.ndim() == 2, "row: input must be 2-D");
  DECO_CHECK(r >= 0 && r < t.dim(0), "row: index out of range");
  const int64_t c = t.dim(1);
  Tensor out({c});
  std::copy(t.data() + r * c, t.data() + (r + 1) * c, out.data());
  return out;
}

Tensor stack(const std::vector<Tensor>& items) {
  DECO_CHECK(!items.empty(), "stack: empty input");
  const int64_t per = items.front().numel();
  std::vector<int64_t> shape = items.front().shape();
  for (const Tensor& t : items)
    DECO_CHECK(t.shape() == shape, "stack: shape mismatch");
  shape.insert(shape.begin(), static_cast<int64_t>(items.size()));
  Tensor out(shape);
  float* po = out.data();
  for (size_t i = 0; i < items.size(); ++i)
    std::copy(items[i].data(), items[i].data() + per,
              po + static_cast<int64_t>(i) * per);
  return out;
}

Tensor take(const Tensor& t, const std::vector<int64_t>& indices) {
  DECO_CHECK(t.ndim() >= 1, "take: input must have a leading axis");
  const int64_t lead = t.dim(0);
  int64_t per = 1;
  for (int64_t d = 1; d < t.ndim(); ++d) per *= t.dim(d);
  std::vector<int64_t> shape = t.shape();
  shape[0] = static_cast<int64_t>(indices.size());
  Tensor out(shape);
  float* po = out.data();
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t idx = indices[i];
    DECO_CHECK(idx >= 0 && idx < lead, "take: index out of range");
    std::copy(t.data() + idx * per, t.data() + (idx + 1) * per,
              po + static_cast<int64_t>(i) * per);
  }
  return out;
}

}  // namespace deco
