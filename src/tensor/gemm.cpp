// Packed blocked GEMM (GotoBLAS/BLIS structure, scalar-source microkernel).
//
// Layout: A is packed into MR-row strips (strip s holds rows [s*MR, s*MR+MR),
// element (kk, r) at offset kk*MR + r), B into NR-column strips (element
// (kk, c) at kk*NR + c). Edge strips are zero-padded to full width — padding
// only ever lands in output lanes that the masked writeback discards, so
// Inf/NaN semantics of the real elements are untouched. The k dimension is
// never padded.
//
// Compute walks KC-sized k blocks in ascending order; within a block the
// microkernel accumulates k ascending into a local MR×NR register tile, then
// adds the tile into C (or stores it, for the first block of a non-accumulate
// call). Each output element's accumulation order is therefore a pure
// function of (k, KC) — never of the thread count. Parallelism only carves
// ownership: pack strips have disjoint destinations, and each MC×NC output
// tile is written by exactly one task. That satisfies contract shapes (a)
// and (c) in core/thread_pool.h, so results are bitwise identical at any
// DECO_NUM_THREADS.
//
// Both pack panels come from the calling thread's Workspace arena, so a
// steady-state training loop runs this kernel with zero heap traffic.
//
// gemm_conv and gemm_conv_nt swap only the B packer: they gather each NR
// strip of the implicit im2col matrix (pack_b_conv), or of its transpose
// (pack_b_conv_t), straight out of a zero-bordered input. The packed bytes
// equal what pack_b writes from the materialized matrix, and every entry
// point runs the one compute loop (gemm_packed), so results are identical.

#include "deco/tensor/gemm.h"

#include <algorithm>

#include "deco/core/telemetry.h"
#include "deco/core/thread_pool.h"
#include "deco/core/workspace.h"

namespace deco::detail {

namespace {

// Register tile. MR*NR accumulators must fit the vector register file:
// 8 rows × 32 columns = 16 AVX-512 (or 32 AVX2) vector accumulators plus a
// broadcast register — comfortably inside 32 zmm / tight but viable in ymm.
constexpr int64_t kMR = 8;
constexpr int64_t kNR = 32;
// Cache blocking. KC sizes one packed B strip (KC*NR floats = 32 KiB) to
// roughly L1; MC*KC (64 KiB) stays well inside L2 alongside it. MC and NC
// are ownership granularity for the parallel split and must be multiples of
// MR / NR respectively.
constexpr int64_t kKC = 256;
constexpr int64_t kMC = 64;
constexpr int64_t kNC = 512;

static_assert(kMC % kMR == 0, "MC must be a multiple of MR");
static_assert(kNC % kNR == 0, "NC must be a multiple of NR");

int64_t div_up(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Strip grain sized so one pack chunk carries ~64k copies (same policy as
// row_grain in ops.cpp): pure function of the shape, never the thread count.
int64_t strip_grain(int64_t work_per_strip) {
  constexpr int64_t kChunkWork = 1 << 16;
  return std::max<int64_t>(1, kChunkWork / std::max<int64_t>(1, work_per_strip));
}

void pack_a(const float* a, int64_t a_rs, int64_t a_cs, int64_t m, int64_t k,
            float* pack) {
  const int64_t strips = div_up(m, kMR);
  core::parallel_for(0, strips, strip_grain(k * kMR),
                     [&](int64_t s0, int64_t s1) {
    for (int64_t s = s0; s < s1; ++s) {
      float* dst = pack + s * k * kMR;
      const int64_t i0 = s * kMR;
      const int64_t rows = std::min<int64_t>(kMR, m - i0);
      const float* src0 = a + i0 * a_rs;
      for (int64_t kk = 0; kk < k; ++kk) {
        float* d = dst + kk * kMR;
        const float* src = src0 + kk * a_cs;
        int64_t r = 0;
        for (; r < rows; ++r) d[r] = src[r * a_rs];
        for (; r < kMR; ++r) d[r] = 0.0f;
      }
    }
  });
}

void pack_b(const float* b, int64_t b_rs, int64_t b_cs, int64_t k, int64_t n,
            float* pack) {
  const int64_t strips = div_up(n, kNR);
  core::parallel_for(0, strips, strip_grain(k * kNR),
                     [&](int64_t s0, int64_t s1) {
    for (int64_t s = s0; s < s1; ++s) {
      float* dst = pack + s * k * kNR;
      const int64_t j0 = s * kNR;
      const int64_t cols = std::min<int64_t>(kNR, n - j0);
      const float* src0 = b + j0 * b_cs;
      for (int64_t kk = 0; kk < k; ++kk) {
        float* d = dst + kk * kNR;
        const float* src = src0 + kk * b_rs;
        int64_t c = 0;
        for (; c < cols; ++c) d[c] = src[c * b_cs];
        for (; c < kNR; ++c) d[c] = 0.0f;
      }
    }
  });
}

// One run of a conv B strip: `len` consecutive columns of one output row
// (n, oy), whose tap (0, 0, 0) sits at `src` in the padded input.
struct ConvRun {
  int64_t col;  // first strip column of the run
  int64_t len;
  int64_t src;
};

// Writes the k rows of one B strip from its runs.
void pack_conv_strip(const ConvOperand& b, const ConvRun* runs,
                     int64_t num_runs, int64_t cols, float* d) {
  const int64_t plane = b.padded_h * b.padded_w;
  for (int64_t ch = 0; ch < b.channels; ++ch) {
    for (int64_t ky = 0; ky < b.kernel_h; ++ky) {
      for (int64_t kx = 0; kx < b.kernel_w; ++kx, d += kNR) {
        const float* tap = b.padded + ch * plane + ky * b.padded_w + kx;
        for (int64_t r = 0; r < num_runs; ++r) {
          const float* src = tap + runs[r].src;
          float* out = d + runs[r].col;
          if (b.stride == 1) {
            for (int64_t i = 0; i < runs[r].len; ++i) out[i] = src[i];
          } else {
            for (int64_t i = 0; i < runs[r].len; ++i) out[i] = src[i * b.stride];
          }
        }
        for (int64_t c = cols; c < kNR; ++c) d[c] = 0.0f;
      }
    }
  }
}

// Packs B strips from the implicit im2col matrix of `b`. A strip's columns are
// split into runs that stay inside one output row (n, oy); for every B row
// (ch, ky, kx) a run is then one copy (or, at stride > 1, one fixed-stride
// gather) out of a single padded input row. The zero border supplies every
// tap outside the image, so nothing is bounds-checked per element.
void pack_b_conv(const ConvOperand& b, float* pack) {
  const int64_t n = b.cols(), k = b.rows();
  const int64_t per_sample = b.out_h * b.out_w;
  const int64_t strips = div_up(n, kNR);
  core::parallel_for(0, strips, strip_grain(k * kNR),
                     [&](int64_t s0, int64_t s1) {
    ConvRun runs[kNR];
    for (int64_t s = s0; s < s1; ++s) {
      const int64_t j0 = s * kNR;
      const int64_t cols = std::min<int64_t>(kNR, n - j0);
      int64_t num_runs = 0;
      for (int64_t col = 0; col < cols;) {
        const int64_t j = j0 + col;
        const int64_t sample = j / per_sample, pix = j % per_sample;
        const int64_t oy = pix / b.out_w, ox = pix % b.out_w;
        const int64_t len = std::min(cols - col, b.out_w - ox);
        runs[num_runs++] = {col, len,
                            (sample * b.channels * b.padded_h + oy * b.stride) *
                                    b.padded_w +
                                ox * b.stride};
        col += len;
      }
      pack_conv_strip(b, runs, num_runs, cols, pack + s * k * kNR);
    }
  });
}

// Packs B strips of the transposed implicit im2col matrix of `b` (k = b.cols()
// output pixels by n = b.rows() taps), the B operand of a conv's dW GEMM.
// Element (kk, c) of strip s is tap j0 + c at pixel kk: exactly what pack_b
// writes from the materialized matrix read transposed. Each packed row is
// one pixel's gather of its taps, written contiguously. Work is split over
// (strip, sample) pairs, so a first layer with one strip of taps still
// spreads over the batch.
void pack_b_conv_t(const ConvOperand& b, float* pack) {
  const int64_t k = b.cols(), n = b.rows();
  const int64_t plane = b.padded_h * b.padded_w;
  const int64_t per_sample = b.out_h * b.out_w;
  const int64_t strips = div_up(n, kNR);
  core::parallel_for(0, strips * b.batch, strip_grain(per_sample * kNR),
                     [&](int64_t u0, int64_t u1) {
    int64_t tap[kNR];  // offset of tap (ch, ky, kx) from the pixel's origin
    int64_t tap_strip = -1;  // the strip `tap` holds
    for (int64_t u = u0; u < u1; ++u) {
      const int64_t s = u / b.batch, sample = u % b.batch;
      const int64_t j0 = s * kNR;
      const int64_t cols = std::min<int64_t>(kNR, n - j0);
      if (s != tap_strip) {
        for (int64_t c = 0; c < cols; ++c) {
          const int64_t j = j0 + c;
          const int64_t kx = j % b.kernel_w;
          const int64_t ky = (j / b.kernel_w) % b.kernel_h;
          const int64_t ch = j / (b.kernel_w * b.kernel_h);
          tap[c] = ch * plane + ky * b.padded_w + kx;
        }
        tap_strip = s;
      }
      const float* img = b.padded + sample * b.channels * plane;
      float* d = pack + (s * k + sample * per_sample) * kNR;
      for (int64_t oy = 0; oy < b.out_h; ++oy) {
        const float* row = img + oy * b.stride * b.padded_w;
        for (int64_t ox = 0; ox < b.out_w; ++ox, d += kNR) {
          const float* src = row + ox * b.stride;
          int64_t c = 0;
          for (; c < cols; ++c) d[c] = src[tap[c]];
          for (; c < kNR; ++c) d[c] = 0.0f;
        }
      }
    }
  });
}

// acc[r][c] += sum over kc of Apack(kk, r) * Bpack(kk, c). The fixed trip
// counts let the compiler unroll r fully and keep the whole tile in vector
// registers; k ascends, which is the accumulation order the determinism
// contract pins down.
void micro_kernel(const float* ap, const float* bp, int64_t kc,
                  float acc[kMR * kNR]) {
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* arow = ap + kk * kMR;
    const float* brow = bp + kk * kNR;
    for (int64_t r = 0; r < kMR; ++r) {
      const float ar = arow[r];
      for (int64_t c = 0; c < kNR; ++c) acc[r * kNR + c] += ar * brow[c];
    }
  }
}

// The blocked kernel behind both entry points. `pack_b_into(packB)` fills the
// NR-strip panels of the k×n B operand; everything else is shared.
template <typename PackB>
void gemm_packed(int64_t m, int64_t n, int64_t k,
                 const float* a, int64_t a_rs, int64_t a_cs,
                 const PackB& pack_b_into, float* c, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    // Empty contraction: the k-block loop below would never write C.
    if (!accumulate) std::fill(c, c + m * n, 0.0f);
    return;
  }

  const int64_t a_strips = div_up(m, kMR);
  const int64_t b_strips = div_up(n, kNR);

  // Throughput accounting (multiply-add = 2 flops) and packing traffic; the
  // span aggregates kernel wall time per phase for the telemetry exports.
  DECO_TRACE_SCOPE("tensor/gemm");
  {
    namespace telem = core::telemetry;
    static telem::Counter& c_calls = telem::counter("gemm/calls");
    static telem::Counter& c_flops = telem::counter("gemm/flops");
    static telem::Counter& c_pack = telem::counter("gemm/pack_bytes");
    c_calls.add(1);
    c_flops.add(2 * m * n * k);
    c_pack.add((a_strips * kMR + b_strips * kNR) * k *
               static_cast<int64_t>(sizeof(float)));
  }

  core::Workspace::Scope scratch;
  float* packA = scratch.alloc_floats(a_strips * kMR * k);
  float* packB = scratch.alloc_floats(b_strips * kNR * k);
  pack_a(a, a_rs, a_cs, m, k, packA);
  pack_b_into(packB);

  const int64_t tiles_m = div_up(m, kMC);
  const int64_t tiles_n = div_up(n, kNC);
  core::parallel_for(0, tiles_m * tiles_n, 1, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t ti = t / tiles_n;
      const int64_t tj = t % tiles_n;
      const int64_t i_begin = ti * kMC, i_end = std::min(i_begin + kMC, m);
      const int64_t j_begin = tj * kNC, j_end = std::min(j_begin + kNC, n);
      for (int64_t kc_begin = 0; kc_begin < k; kc_begin += kKC) {
        const int64_t kc = std::min(kKC, k - kc_begin);
        const bool store = kc_begin == 0 && !accumulate;
        for (int64_t jr = j_begin; jr < j_end; jr += kNR) {
          const float* bp = packB + ((jr / kNR) * k + kc_begin) * kNR;
          const int64_t cols = std::min(kNR, j_end - jr);
          for (int64_t ir = i_begin; ir < i_end; ir += kMR) {
            const float* ap = packA + ((ir / kMR) * k + kc_begin) * kMR;
            const int64_t rows = std::min(kMR, i_end - ir);
            alignas(64) float acc[kMR * kNR] = {};
            micro_kernel(ap, bp, kc, acc);
            for (int64_t r = 0; r < rows; ++r) {
              float* crow = c + (ir + r) * n + jr;
              const float* arow = acc + r * kNR;
              if (store) {
                for (int64_t cc = 0; cc < cols; ++cc) crow[cc] = arow[cc];
              } else {
                for (int64_t cc = 0; cc < cols; ++cc) crow[cc] += arow[cc];
              }
            }
          }
        }
      }
    }
  });
}

}  // namespace

void gemm_strided(int64_t m, int64_t n, int64_t k,
                  const float* a, int64_t a_rs, int64_t a_cs,
                  const float* b, int64_t b_rs, int64_t b_cs,
                  float* c, bool accumulate) {
  gemm_packed(m, n, k, a, a_rs, a_cs,
              [&](float* packB) { pack_b(b, b_rs, b_cs, k, n, packB); }, c,
              accumulate);
}

void gemm_conv(int64_t m, const float* a, const ConvOperand& b, float* c,
               bool accumulate) {
  const int64_t k = b.rows();
  gemm_packed(m, b.cols(), k, a, k, 1,
              [&](float* packB) { pack_b_conv(b, packB); }, c, accumulate);
}

void gemm_conv_nt(int64_t m, const float* a, const ConvOperand& b, float* c,
                  bool accumulate) {
  const int64_t k = b.cols();
  gemm_packed(m, b.rows(), k, a, k, 1,
              [&](float* packB) { pack_b_conv_t(b, packB); }, c, accumulate);
}

}  // namespace deco::detail
