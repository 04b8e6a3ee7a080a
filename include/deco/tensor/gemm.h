// Cache-blocked, register-tiled GEMM shared by the matmul_* and conv kernels.
//
// One strided entry point covers all three public variants (NN, Tᵀ·N, N·Bᵀ):
// the operands are described by row/column strides, the kernel packs them
// into contiguous aligned panels, and a fixed microkernel does the flops.
// Three more entry points compute a convolution from an input that already
// carries its zero border: gemm_conv (forward, output written straight into
// NCHW with the bias) and gemm_conv_nt (dW) read that input in place
// through offset tables with output channels in the vector lanes, packing
// only Wᵀ or dyᵀ; gemm_conv_dx (dX) drains its product through col2im one
// L2-sized tile at a time. None of them materializes an im2col matrix, a
// permuted dy or a column-gradient matrix. See src/tensor/gemm.cpp for the
// blocking scheme and the determinism argument, and docs/EXTENDING.md for
// how to tune the block sizes.
#pragma once

#include <cstdint>

namespace deco::detail {

/// C (row-major, m×n, contiguous) = A·B, or C += A·B when `accumulate`.
///
/// A is m×k with A(i,kk) = a[i*a_rs + kk*a_cs];
/// B is k×n with B(kk,j) = b[kk*b_rs + j*b_cs].
/// `c` must not alias `a` or `b`. Results are bitwise identical for every
/// thread count (the accumulation order per output element is a pure
/// function of k and the KC block size).
void gemm_strided(int64_t m, int64_t n, int64_t k,
                  const float* a, int64_t a_rs, int64_t a_cs,
                  const float* b, int64_t b_rs, int64_t b_cs,
                  float* c, bool accumulate);

/// The B operand of a convolution GEMM, read in place from an input that
/// already carries its zero border: `padded` is [batch, channels,
/// padded_h, padded_w], contiguous, with padded_h = in_h + 2*padding (and
/// likewise the width). Row (ch, ky, kx) and column (n, oy, ox) of B is
/// padded[n][ch][oy*stride + ky][ox*stride + kx] — the im2col matrix of the
/// unpadded input, never materialized. gemm_conv_dx reads only the
/// geometry, never `padded`.
struct ConvOperand {
  const float* padded = nullptr;
  int64_t batch = 0;
  int64_t channels = 0;
  int64_t padded_h = 0;
  int64_t padded_w = 0;
  int64_t padding = 0;
  int64_t kernel_h = 0;
  int64_t kernel_w = 0;
  int64_t stride = 1;
  int64_t out_h = 0;
  int64_t out_w = 0;

  int64_t rows() const { return channels * kernel_h * kernel_w; }
  int64_t cols() const { return batch * out_h * out_w; }
};

/// out [batch, m, out_h, out_w] (NCHW) = A·B + bias, with A row-major
/// m×b.rows(), B the implicit im2col matrix described by `b` and bias[m].
/// Computed as the transposed product: 8-pixel strips of B read through
/// pixel-origin and tap-offset tables against Aᵀ packed once, then each
/// tile transposed into the NCHW planes with the bias added after the last
/// k block as its own rounding. `out` is bitwise equal to gemm_strided(m,
/// n, k, a, k, 1, im2col, n, 1, c, false) permuted to NCHW and then given
/// c[i][j] + bias[i].
void gemm_conv(int64_t m, const float* a, const float* bias,
               const ConvOperand& b, float* out);

/// C (row-major, m×b.rows()) += dy·Bᵀ with dy [batch, m, out_h, out_w]
/// (NCHW, read as the m×b.cols() matrix of the forward output) and B the
/// implicit im2col matrix described by `b` — a convolution's weight
/// gradient. Computed as Cᵀ += B·dyᵀ: 8-tap strips of B read through the
/// same offset tables against dyᵀ packed one KC×32 block at a time. Bitwise
/// identical to gemm_strided(m, b.rows(), b.cols(), dy_mat, b.cols(), 1,
/// im2col, 1, b.cols(), c, true), where dy_mat is dy permuted to
/// [m, batch·out_h·out_w].
void gemm_conv_nt(int64_t m, const float* dy, const ConvOperand& b, float* c);

/// dx [batch, channels, in_h, in_w] = col2im(Wᵀ·dy) with W row-major
/// m×b.rows() and dy [batch, m, out_h, out_w] (NCHW, read in place) — a
/// convolution's input gradient. Each block of whole samples (about 256
/// columns) packs its dy columns once; the product then runs per 8 input
/// channels of it into a Workspace tile, which col2im drains into the
/// block's whole dx planes, so no column-gradient matrix exists. Bitwise
/// identical to gemm_strided(b.rows(), b.cols(), m, w, 1, b.rows(), dy_mat,
/// b.cols(), 1, cols, false) followed by col2im_into.
void gemm_conv_dx(int64_t m, const float* w, const float* dy,
                  const ConvOperand& b, float* dx);

}  // namespace deco::detail
