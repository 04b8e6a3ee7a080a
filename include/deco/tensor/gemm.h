// Cache-blocked, register-tiled GEMM shared by the matmul_* kernels.
//
// One strided entry point covers all three public variants (NN, Tᵀ·N, N·Bᵀ):
// the operands are described by row/column strides, the kernel packs them
// into contiguous aligned panels, and a fixed microkernel does the flops.
// Two more entry points, gemm_conv and gemm_conv_nt, run the same kernel for
// a convolution's forward and weight-gradient products: they pack B straight
// from a zero-bordered input instead of an im2col matrix.
// See src/tensor/gemm.cpp for the blocking scheme and the determinism
// argument, and docs/EXTENDING.md for how to tune the block sizes.
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
/// padded_h, padded_w], contiguous. Row (ch, ky, kx) and column
/// (n, oy, ox) of B is padded[n][ch][oy*stride + ky][ox*stride + kx] —
/// the im2col matrix of the unpadded input, never materialized.
struct ConvOperand {
  const float* padded = nullptr;
  int64_t batch = 0;
  int64_t channels = 0;
  int64_t padded_h = 0;
  int64_t padded_w = 0;
  int64_t kernel_h = 0;
  int64_t kernel_w = 0;
  int64_t stride = 1;
  int64_t out_h = 0;
  int64_t out_w = 0;

  int64_t rows() const { return channels * kernel_h * kernel_w; }
  int64_t cols() const { return batch * out_h * out_w; }
};

/// C (row-major, m×b.cols()) = A·B with A row-major m×b.rows() and B the
/// implicit im2col matrix described by `b`. Packs exactly the bytes
/// gemm_strided would pack from the materialized matrix and shares its
/// compute loop, so the result is bitwise identical to
/// gemm_strided(m, n, k, a, k, 1, im2col, n, 1, c, accumulate).
void gemm_conv(int64_t m, const float* a, const ConvOperand& b, float* c,
               bool accumulate);

/// C (row-major, m×b.rows()) = A·Bᵀ with A row-major m×b.cols() and B the
/// implicit im2col matrix described by `b` — a convolution's weight
/// gradient. Bitwise identical to
/// gemm_strided(m, b.rows(), b.cols(), a, b.cols(), 1, im2col, 1, b.cols(),
/// c, accumulate).
void gemm_conv_nt(int64_t m, const float* a, const ConvOperand& b, float* c,
                  bool accumulate);

}  // namespace deco::detail
