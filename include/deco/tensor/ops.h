// Free-function numeric kernels on Tensor.
//
// Kernels come in two flavors: value-returning convenience forms and
// `*_into` forms that write into a caller-provided output tensor (resizing it
// if needed) so hot loops can run allocation-free after the first iteration.
#pragma once

#include <cstdint>
#include <vector>

#include "deco/tensor/tensor.h"

namespace deco {

// ---- GEMM -------------------------------------------------------------------
// All matrices are row-major 2-D tensors. Every variant runs the packed
// blocked kernel in tensor/gemm.h; `out` must not alias an input. The
// `*_acc_into` forms compute out += A·B into an already-shaped output —
// layer backward passes use them to fold gradients straight into the
// accumulator tensor with no temporary.

/// out = A[m,k] * B[k,n]
void matmul_into(const Tensor& a, const Tensor& b, Tensor& out);
Tensor matmul(const Tensor& a, const Tensor& b);

/// out = A[k,m]^T * B[k,n]  (i.e. out[m,n] = sum_k A[k,m]*B[k,n])
void matmul_tn_into(const Tensor& a, const Tensor& b, Tensor& out);
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// out += A[k,m]^T * B[k,n]; out must already be [m,n].
void matmul_tn_acc_into(const Tensor& a, const Tensor& b, Tensor& out);

/// out = A[m,k] * B[n,k]^T  (i.e. out[m,n] = sum_k A[m,k]*B[n,k])
void matmul_nt_into(const Tensor& a, const Tensor& b, Tensor& out);
Tensor matmul_nt(const Tensor& a, const Tensor& b);
/// out += A[m,k] * B[n,k]^T; out must already be [m,n].
void matmul_nt_acc_into(const Tensor& a, const Tensor& b, Tensor& out);

/// out[c, r] = in[r, c]
void transpose2d_into(const Tensor& in, Tensor& out);
Tensor transpose2d(const Tensor& in);

// ---- im2col / col2im ---------------------------------------------------------
// Images are NCHW. A kernel of size kh x kw with stride/padding maps image
// (C, H, W) to a column matrix [C*kh*kw, OH*OW] per sample; the batched forms
// below stack samples along the column axis: [C*kh*kw, N*OH*OW].

struct Conv2dGeometry {
  int64_t in_channels = 0;
  int64_t in_h = 0;
  int64_t in_w = 0;
  int64_t kernel_h = 0;
  int64_t kernel_w = 0;
  int64_t stride = 1;
  int64_t padding = 0;

  int64_t out_h() const { return (in_h + 2 * padding - kernel_h) / stride + 1; }
  int64_t out_w() const { return (in_w + 2 * padding - kernel_w) / stride + 1; }
  int64_t col_rows() const { return in_channels * kernel_h * kernel_w; }
};

/// Expands NCHW `input` [N,C,H,W] to columns [C*kh*kw, N*OH*OW]. A test
/// reference: the convolution kernels below never build this matrix.
void im2col_into(const Tensor& input, const Conv2dGeometry& g, Tensor& cols);
/// Accumulates columns back into an NCHW gradient image (the adjoint of
/// im2col). `grad_input` must already have shape [N,C,H,W]; it is zeroed.
/// A test reference with a bounds test per element, summing each pixel's
/// taps in (ky, kx) order — the order conv_input_grad_into keeps.
void col2im_into(const Tensor& cols, const Conv2dGeometry& g, Tensor& grad_input);

/// Copies NCHW `input` into `padded` [N, C, H+2p, W+2p] (p = g.padding)
/// with a zero border. Every tap of the convolution then lands inside
/// `padded`, so the GEMMs below never bounds-check.
void pad_into(const Tensor& input, const Conv2dGeometry& g, Tensor& padded);
/// out [N, out_ch, OH, OW] = conv(input) + bias, with weight [out_ch,
/// C*kh*kw], bias [out_ch] and `padded` = pad_into(input). The GEMM packs
/// its B panels straight from `padded` and writes its tiles straight into
/// the NCHW output (detail::gemm_conv); the result is bitwise equal to
/// matmul_into(weight, im2col_into(input)) permuted to NCHW, then + bias.
void conv_forward_into(const Tensor& weight, const Tensor& bias,
                       const Tensor& padded, const Conv2dGeometry& g,
                       Tensor& out);
/// dw [out_ch, C*kh*kw] += grad x im2col(input)^T — a convolution's weight
/// gradient, with grad [N, out_ch, OH, OW] read in place and `padded` =
/// pad_into(input) (detail::gemm_conv_nt). Bitwise equal to
/// matmul_nt_acc_into(grad permuted to [out_ch, N*OH*OW], im2col_into(input),
/// dw).
void conv_weight_grad_acc_into(const Tensor& grad, const Tensor& padded,
                               const Conv2dGeometry& g, Tensor& dw);
/// grad_input [N, C, H, W] = col2im(weight^T x grad) — a convolution's input
/// gradient, with grad [N, out_ch, OH, OW] read in place. The product is
/// drained into grad_input one L2-sized tile at a time
/// (detail::gemm_conv_dx); the result is bitwise equal to
/// matmul_tn_into(weight, grad permuted to [out_ch, N*OH*OW]) followed by
/// col2im_into. Resizes `grad_input` if needed.
void conv_input_grad_into(const Tensor& weight, const Tensor& grad,
                          const Conv2dGeometry& g, Tensor& grad_input);

// ---- row-wise softmax family --------------------------------------------------

/// Numerically stable softmax along the last dimension of a 2-D tensor.
void softmax_rows_into(const Tensor& logits, Tensor& probs);
Tensor softmax_rows(const Tensor& logits);

/// log(softmax) along rows; stable.
void log_softmax_rows_into(const Tensor& logits, Tensor& out);

/// Per-row argmax of a 2-D tensor.
std::vector<int64_t> argmax_rows(const Tensor& t);

/// Per-row maximum value of a 2-D tensor.
std::vector<float> max_rows(const Tensor& t);

// ---- misc ---------------------------------------------------------------------

/// Cosine similarity of flattened tensors; returns 0 when either norm is ~0.
float cosine_similarity(const Tensor& a, const Tensor& b);

/// Extracts row `r` of a 2-D tensor as a 1-D tensor.
Tensor row(const Tensor& t, int64_t r);

/// Stacks equal-shaped tensors along a new leading axis.
Tensor stack(const std::vector<Tensor>& items);

/// Selects rows (leading-axis slices) of `t` by index into a new tensor.
Tensor take(const Tensor& t, const std::vector<int64_t>& indices);

}  // namespace deco
