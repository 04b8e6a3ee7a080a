// Packed blocked GEMM (GotoBLAS/BLIS structure, scalar-source microkernel).
//
// Layout: A is packed into MR-row strips (strip s holds rows [s*MR, s*MR+MR),
// element (kk, r) at offset kk*MR + r), B into KC×NR micro-panels (element
// (kk, c) at kk*NR + c). Edge strips and panels are zero-padded to full
// width — padding only ever lands in output lanes that the masked writeback
// discards, so Inf/NaN semantics of the real elements are untouched. The k
// dimension is never padded.
//
// A is packed whole, up front. B is never packed whole: inside the tile loop
// (compute_tile, the one compute loop every entry point runs) each KC×NR
// micro-panel is packed into a stack buffer right before the MR-row strips
// consume it, so a tile re-packs its panels and no k×n panel exists. Compute
// walks KC-sized k blocks in ascending order; within a block the
// microkernel accumulates k ascending into a local MR×NR register tile and
// hands it to a Store policy, which stores it (first block) or adds it into
// C. Each output element's accumulation order is therefore a pure function
// of (k, KC) — never of how rows and columns are tiled, nor of the thread
// count. Parallelism only carves ownership: each MC×NC output tile (or dX
// block) is written by exactly one task. That satisfies contract shapes (a) and (c)
// in core/thread_pool.h, so results are bitwise identical at any
// DECO_NUM_THREADS.
//
// The entry points differ only in their packers and Store policy:
//   * gemm_strided: strided A and B, row-major C;
//   * gemm_conv: B gathered from a zero-bordered input (the implicit im2col
//     matrix), C written straight into an NCHW output with its bias added
//     after the last k block, as its own rounding (the bits of s + b);
//   * gemm_conv_nt: A is dy read in NCHW, B the transposed implicit im2col;
//   * gemm_conv_dx: Wᵀ·dy per block of 8 input channels × ~256 columns into
//     a Workspace tile that col2im then drains into whole dX planes.
// Every packer fills exactly the bytes the strided packer would write from
// the materialized operand, so each entry point is bitwise identical to
// gemm_strided on materialized operands.
//
// The A panel and the dX tiles come from the calling thread's Workspace
// arena and B panels live on the stack, so a steady-state training loop runs
// these kernels with zero heap traffic.

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
// Cache blocking. KC sizes one packed B micro-panel (KC*NR floats = 32 KiB)
// to roughly L1; MC*KC (64 KiB) stays well inside L2 alongside it. MC and NC
// are ownership granularity for the parallel split and must be multiples of
// MR / NR respectively.
constexpr int64_t kKC = 256;
constexpr int64_t kMC = 64;
constexpr int64_t kNC = 512;
// dX blocking: one block is kDxChannels input channels × enough samples for
// about kDxCols columns. kDxChannels = MR keeps every block's first row on
// a packed-Wᵀ strip boundary; the tile (72 rows × 256 columns at a 3×3
// kernel, 72 KiB) stays in L2 between the GEMM and the drain.
constexpr int64_t kDxChannels = 8;
constexpr int64_t kDxCols = 256;

static_assert(kMC % kMR == 0, "MC must be a multiple of MR");
static_assert(kNC % kNR == 0, "NC must be a multiple of NR");
static_assert(kDxChannels == kMR, "dX blocks must start on A strips");

int64_t div_up(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Strip grain sized so one pack chunk carries ~64k copies (same policy as
// row_grain in ops.cpp): pure function of the shape, never the thread count.
int64_t strip_grain(int64_t work_per_strip) {
  constexpr int64_t kChunkWork = 1 << 16;
  return std::max<int64_t>(1, kChunkWork / std::max<int64_t>(1, work_per_strip));
}

// Call, flop (multiply-add = 2) and packing-traffic accounting; the caller's
// `tensor/gemm` span aggregates kernel wall time per phase.
void note_gemm(int64_t m, int64_t n, int64_t k, int64_t packed_floats) {
  namespace telem = core::telemetry;
  static telem::Counter& c_calls = telem::counter("gemm/calls");
  static telem::Counter& c_flops = telem::counter("gemm/flops");
  static telem::Counter& c_pack = telem::counter("gemm/pack_bytes");
  c_calls.add(1);
  c_flops.add(2 * m * n * k);
  c_pack.add(packed_floats * static_cast<int64_t>(sizeof(float)));
}

// A(i, kk) = a[i*rs + (kk / run)*run_stride + (kk % run)*cs]. With run = k
// this is a plain strided matrix; with run = one sample's pixels and
// run_stride = one sample's planes it is a convolution's dy read in NCHW.
struct AOperand {
  const float* a;
  int64_t rs, cs;
  int64_t run, run_stride;
};

void pack_a(const AOperand& a, int64_t m, int64_t k, float* pack) {
  const int64_t strips = div_up(m, kMR);
  core::parallel_for(0, strips, strip_grain(k * kMR),
                     [&](int64_t s0, int64_t s1) {
    for (int64_t s = s0; s < s1; ++s) {
      float* d = pack + s * k * kMR;
      const int64_t i0 = s * kMR;
      const int64_t rows = std::min<int64_t>(kMR, m - i0);
      const float* run_src = a.a + i0 * a.rs;
      for (int64_t kk0 = 0; kk0 < k; kk0 += a.run, run_src += a.run_stride) {
        const int64_t len = std::min(a.run, k - kk0);
        for (int64_t kk = 0; kk < len; ++kk, d += kMR) {
          const float* src = run_src + kk * a.cs;
          int64_t r = 0;
          for (; r < rows; ++r) d[r] = src[r * a.rs];
          for (; r < kMR; ++r) d[r] = 0.0f;
        }
      }
    }
  });
}

// ---- B micro-panel packers ---------------------------------------------------
// Each is called as pack(kc_begin, kc, j0, cols, d) and writes rows
// [kc_begin, kc_begin + kc) × columns [j0, j0 + cols) of B to the KC×NR
// panel `d`, zeroing lanes [cols, NR) of every row. None divides per row or
// per element: positions are decoded once per panel, then stepped.

void zero_tail(float* d, int64_t cols) {
  for (int64_t c = cols; c < kNR; ++c) d[c] = 0.0f;
}

// B(kk, j) = b[kk*rs + j*cs].
struct StridedPanel {
  const float* b;
  int64_t rs, cs;

  void operator()(int64_t kc_begin, int64_t kc, int64_t j0, int64_t cols,
                  float* d) const {
    const float* src = b + kc_begin * rs + j0 * cs;
    for (int64_t kk = 0; kk < kc; ++kk, d += kNR, src += rs) {
      for (int64_t c = 0; c < cols; ++c) d[c] = src[c * cs];
      zero_tail(d, cols);
    }
  }
};

// `len` consecutive panel columns starting at column `col` whose sources
// are consecutive too (`src` is an element offset or pointer, per packer).
template <typename Src>
struct Run {
  int64_t col;
  int64_t len;
  Src src;
};

// The implicit im2col matrix of `b`: B((ch, ky, kx), (n, oy, ox)) =
// padded[n][ch][oy*stride + ky][ox*stride + kx]. The panel's columns split
// into runs inside one output row (n, oy); for every B row (ch, ky, kx) a
// run is then one copy (or, at stride > 1, one fixed-stride gather) out of
// a single padded input row. The zero border supplies every tap outside
// the image, so nothing is bounds-checked per element.
struct ConvPanel {
  const ConvOperand& b;

  void operator()(int64_t kc_begin, int64_t kc, int64_t j0, int64_t cols,
                  float* d) const {
    const int64_t per_sample = b.out_h * b.out_w;
    const int64_t plane = b.padded_h * b.padded_w;
    Run<int64_t> runs[kNR];  // src: offset of the run's tap (0, 0, 0)
    int64_t num_runs = 0;
    int64_t sample = j0 / per_sample;
    int64_t oy = j0 % per_sample / b.out_w, ox = j0 % per_sample % b.out_w;
    for (int64_t col = 0; col < cols; ox = 0) {
      const int64_t len = std::min(cols - col, b.out_w - ox);
      runs[num_runs++] = {col, len,
                          (sample * b.channels * b.padded_h + oy * b.stride) *
                                  b.padded_w +
                              ox * b.stride};
      col += len;
      if (++oy == b.out_h) oy = 0, ++sample;
    }
    int64_t kx = kc_begin % b.kernel_w;
    int64_t ky = kc_begin / b.kernel_w % b.kernel_h;
    int64_t ch = kc_begin / (b.kernel_w * b.kernel_h);
    for (int64_t kk = 0; kk < kc; ++kk, d += kNR) {
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
      zero_tail(d, cols);
      if (++kx == b.kernel_w) {
        kx = 0;
        if (++ky == b.kernel_h) ky = 0, ++ch;
      }
    }
  }
};

// The transposed implicit im2col matrix of `b` (pixels × taps), the B
// operand of a conv's dW GEMM. Each packed row is one output pixel's gather
// of the panel's taps, written contiguously.
struct ConvPanelT {
  const ConvOperand& b;

  void operator()(int64_t kc_begin, int64_t kc, int64_t j0, int64_t cols,
                  float* d) const {
    const int64_t plane = b.padded_h * b.padded_w;
    int64_t tap[kNR];  // offset of tap (ch, ky, kx) from the pixel's origin
    int64_t kx = j0 % b.kernel_w;
    int64_t ky = j0 / b.kernel_w % b.kernel_h;
    int64_t ch = j0 / (b.kernel_w * b.kernel_h);
    for (int64_t c = 0; c < cols; ++c) {
      tap[c] = ch * plane + ky * b.padded_w + kx;
      if (++kx == b.kernel_w) {
        kx = 0;
        if (++ky == b.kernel_h) ky = 0, ++ch;
      }
    }
    const int64_t per_sample = b.out_h * b.out_w;
    const float* img = b.padded + kc_begin / per_sample * b.channels * plane;
    int64_t oy = kc_begin % per_sample / b.out_w;
    int64_t ox = kc_begin % per_sample % b.out_w;
    const float* src = img + (oy * b.padded_w + ox) * b.stride;
    for (int64_t kk = 0; kk < kc; ++kk, d += kNR) {
      for (int64_t c = 0; c < cols; ++c) d[c] = src[tap[c]];
      zero_tail(d, cols);
      src += b.stride;
      if (++ox == b.out_w) {
        ox = 0;
        if (++oy == b.out_h) oy = 0, img += b.channels * plane;
        src = img + oy * b.stride * b.padded_w;
      }
    }
  }
};

// dy [batch, channels, per_sample] read in place as the channels × (batch ·
// per_sample) matrix B(ch, n*per_sample + pix), columns offset by `col0`.
// The panel's columns split into runs at sample boundaries.
struct NchwPanel {
  const float* dy;
  int64_t channels, per_sample, col0;

  void operator()(int64_t kc_begin, int64_t kc, int64_t j0, int64_t cols,
                  float* d) const {
    Run<const float*> runs[kNR];  // src: the run's first element in row kc_begin
    int64_t num_runs = 0;
    int64_t sample = (col0 + j0) / per_sample;
    int64_t pix = (col0 + j0) % per_sample;
    for (int64_t col = 0; col < cols; pix = 0, ++sample) {
      const int64_t len = std::min(cols - col, per_sample - pix);
      runs[num_runs++] = {
          col, len, dy + (sample * channels + kc_begin) * per_sample + pix};
      col += len;
    }
    for (int64_t kk = 0; kk < kc; ++kk, d += kNR) {
      for (int64_t r = 0; r < num_runs; ++r) {
        const float* src = runs[r].src + kk * per_sample;
        float* out = d + runs[r].col;
        for (int64_t i = 0; i < runs[r].len; ++i) out[i] = src[i];
      }
      zero_tail(d, cols);
    }
  }
};

// ---- Store policies ----------------------------------------------------------
// Each is called as store(i0, rows, j0, cols, acc, first, last) with the
// MR×NR register tile `acc` of C rows [i0, i0 + rows) × columns
// [j0, j0 + cols) for one k block; `first` / `last` flag the first and last
// k block.

// Row-major C with leading dimension ldc. The first k block stores unless
// the call accumulates; every later block adds.
struct MatrixStore {
  float* c;
  int64_t ldc;
  bool accumulate;

  void operator()(int64_t i0, int64_t rows, int64_t j0, int64_t cols,
                  const float* acc, bool first, bool /*last*/) const {
    const bool store = first && !accumulate;
    for (int64_t r = 0; r < rows; ++r) {
      float* crow = c + (i0 + r) * ldc + j0;
      const float* arow = acc + r * kNR;
      if (store) {
        for (int64_t cc = 0; cc < cols; ++cc) crow[cc] = arow[cc];
      } else {
        for (int64_t cc = 0; cc < cols; ++cc) crow[cc] += arow[cc];
      }
    }
  }
};

// C(i, n*per_sample + pix) lives at out[(n*m + i)*per_sample + pix], an NCHW
// tensor. A tile row splits into runs at sample boundaries. After the last
// k block, bias[i] is added as its own rounding: the result has the bits of
// the row-major product plus the bias.
struct NchwStore {
  float* out;
  const float* bias;
  int64_t m, per_sample;

  void operator()(int64_t i0, int64_t rows, int64_t j0, int64_t cols,
                  const float* acc, bool first, bool last) const {
    int64_t sample = j0 / per_sample, pix = j0 % per_sample;
    for (int64_t col = 0; col < cols; pix = 0, ++sample) {
      const int64_t len = std::min(cols - col, per_sample - pix);
      for (int64_t r = 0; r < rows; ++r) {
        float* dst = out + (sample * m + i0 + r) * per_sample + pix;
        const float* a = acc + r * kNR + col;
        if (first) {
          for (int64_t i = 0; i < len; ++i) dst[i] = a[i];
        } else {
          for (int64_t i = 0; i < len; ++i) dst[i] += a[i];
        }
        if (last) {
          const float b = bias[i0 + r];
          for (int64_t i = 0; i < len; ++i) dst[i] += b;
        }
      }
      col += len;
    }
  }
};

// acc[r][c] += sum over kc of Apack(kk, r) * Bpanel(kk, c). The fixed trip
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

// The one compute loop: C rows [i_begin, i_end) × columns [j_begin, j_end)
// of a product with contraction length k, A packed whole in `packA` (strip
// s at s*k*MR). Packs each B micro-panel just before its use.
template <typename PackPanel, typename Store>
void compute_tile(int64_t i_begin, int64_t i_end, int64_t j_begin,
                  int64_t j_end, int64_t k, const float* packA,
                  const PackPanel& pack_panel, const Store& store) {
  alignas(64) float panel[kKC * kNR];
  for (int64_t kc_begin = 0; kc_begin < k; kc_begin += kKC) {
    const int64_t kc = std::min(kKC, k - kc_begin);
    const bool first = kc_begin == 0, last = kc_begin + kc == k;
    for (int64_t jr = j_begin; jr < j_end; jr += kNR) {
      const int64_t cols = std::min(kNR, j_end - jr);
      pack_panel(kc_begin, kc, jr, cols, panel);
      for (int64_t ir = i_begin; ir < i_end; ir += kMR) {
        const float* ap = packA + ((ir / kMR) * k + kc_begin) * kMR;
        alignas(64) float acc[kMR * kNR] = {};
        micro_kernel(ap, panel, kc, acc);
        store(ir, std::min(kMR, i_end - ir), jr, cols, acc, first, last);
      }
    }
  }
}

// An m×n×k product (k > 0) split into MC×NC tiles, one task each.
template <typename PackPanel, typename Store>
void gemm_packed(int64_t m, int64_t n, int64_t k, const AOperand& a,
                 const PackPanel& pack_panel, const Store& store) {
  if (m <= 0 || n <= 0) return;
  const int64_t a_strips = div_up(m, kMR);
  const int64_t tiles_m = div_up(m, kMC);
  const int64_t tiles_n = div_up(n, kNC);

  DECO_TRACE_SCOPE("tensor/gemm");
  // Every MC row tile packs each B micro-panel once.
  note_gemm(m, n, k, (a_strips * kMR + tiles_m * div_up(n, kNR) * kNR) * k);

  core::Workspace::Scope scratch;
  float* packA = scratch.alloc_floats(a_strips * kMR * k);
  pack_a(a, m, k, packA);

  core::parallel_for(0, tiles_m * tiles_n, 1, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t i_begin = t / tiles_n * kMC, j_begin = t % tiles_n * kNC;
      compute_tile(i_begin, std::min(i_begin + kMC, m), j_begin,
                   std::min(j_begin + kNC, n), k, packA, pack_panel, store);
    }
  });
}

// Output positions o in [lo, hi) whose tap o*stride + offset lands inside
// [0, extent).
struct TapRange {
  int64_t lo, hi;
};
TapRange valid_taps(int64_t offset, int64_t stride, int64_t out, int64_t extent) {
  const int64_t lo = offset >= 0 ? 0 : (-offset + stride - 1) / stride;
  const int64_t hi =
      extent - 1 - offset < 0
          ? 0
          : std::min<int64_t>(out, (extent - 1 - offset) / stride + 1);
  return {lo, hi};
}

// col2im of one dX block: folds the tile's rows ((c - c0), ky, kx) ×
// columns ((n - n0), oy, ox) into the whole dX planes (c, n) of the block.
// Each plane starts from zero and takes its taps in the serial (ky, kx)
// order, so every pixel sums exactly as a col2im of the full column matrix
// would. Each tap's in-image (oy, ox) range is computed up front, so the
// inner loop is a plain (at stride 1, contiguous) add with no test.
void drain_planes(const ConvOperand& b, const float* tile, int64_t tile_cols,
                  int64_t c0, int64_t c1, int64_t n0, int64_t n1, float* dx) {
  const int64_t in_h = b.padded_h - 2 * b.padding;
  const int64_t in_w = b.padded_w - 2 * b.padding;
  const int64_t per_sample = b.out_h * b.out_w;
  for (int64_t c = c0; c < c1; ++c) {
    for (int64_t n = n0; n < n1; ++n) {
      float* img = dx + (n * b.channels + c) * in_h * in_w;
      std::fill(img, img + in_h * in_w, 0.0f);
      const float* cols = tile + (n - n0) * per_sample;
      for (int64_t ky = 0; ky < b.kernel_h; ++ky) {
        const TapRange ys =
            valid_taps(ky - b.padding, b.stride, b.out_h, in_h);
        for (int64_t kx = 0; kx < b.kernel_w; ++kx) {
          const TapRange xs =
              valid_taps(kx - b.padding, b.stride, b.out_w, in_w);
          if (xs.lo >= xs.hi) continue;
          const int64_t row = ((c - c0) * b.kernel_h + ky) * b.kernel_w + kx;
          const float* src = cols + row * tile_cols + xs.lo;
          const int64_t len = xs.hi - xs.lo;
          for (int64_t oy = ys.lo; oy < ys.hi; ++oy) {
            float* dst = img + (oy * b.stride + ky - b.padding) * in_w +
                         xs.lo * b.stride + kx - b.padding;
            const float* s = src + oy * b.out_w;
            if (b.stride == 1) {
              for (int64_t i = 0; i < len; ++i) dst[i] += s[i];
            } else {
              for (int64_t i = 0; i < len; ++i) dst[i * b.stride] += s[i];
            }
          }
        }
      }
    }
  }
}

}  // namespace

void gemm_strided(int64_t m, int64_t n, int64_t k,
                  const float* a, int64_t a_rs, int64_t a_cs,
                  const float* b, int64_t b_rs, int64_t b_cs,
                  float* c, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    // Empty contraction: the k-block loop would never write C.
    if (!accumulate) std::fill(c, c + m * n, 0.0f);
    return;
  }
  gemm_packed(m, n, k, AOperand{a, a_rs, a_cs, k, 0},
              StridedPanel{b, b_rs, b_cs}, MatrixStore{c, n, accumulate});
}

void gemm_conv(int64_t m, const float* a, const float* bias,
               const ConvOperand& b, float* out) {
  const int64_t k = b.rows();
  gemm_packed(m, b.cols(), k, AOperand{a, k, 1, k, 0}, ConvPanel{b},
              NchwStore{out, bias, m, b.out_h * b.out_w});
}

void gemm_conv_nt(int64_t m, const float* dy, const ConvOperand& b,
                  float* c) {
  const int64_t per_sample = b.out_h * b.out_w;
  gemm_packed(m, b.rows(), b.cols(),
              AOperand{dy, per_sample, 1, per_sample, m * per_sample},
              ConvPanelT{b}, MatrixStore{c, b.rows(), /*accumulate=*/true});
}

void gemm_conv_dx(int64_t m, const float* w, const float* dy,
                  const ConvOperand& b, float* dx) {
  // The product is Wᵀ [taps × m] · dy [m × batch·per_sample]: its k is m.
  const int64_t taps = b.rows(), n = b.cols(), k = m;
  if (taps <= 0 || n <= 0 || k <= 0) return;
  const int64_t kernel_area = b.kernel_h * b.kernel_w;
  const int64_t per_sample = b.out_h * b.out_w;
  const int64_t block_samples = std::max<int64_t>(1, kDxCols / per_sample);
  const int64_t ch_blocks = div_up(b.channels, kDxChannels);
  const int64_t n_blocks = div_up(b.batch, block_samples);
  const int64_t a_strips = div_up(taps, kMR);

  DECO_TRACE_SCOPE("tensor/gemm");
  // Every channel block packs each of its column blocks' micro-panels once.
  int64_t col_strips = 0;
  for (int64_t n0 = 0; n0 < b.batch; n0 += block_samples) {
    col_strips +=
        div_up(std::min(block_samples, b.batch - n0) * per_sample, kNR);
  }
  note_gemm(taps, n, k, (a_strips * kMR + ch_blocks * col_strips * kNR) * k);

  core::Workspace::Scope scratch;
  float* packA = scratch.alloc_floats(a_strips * kMR * k);
  pack_a(AOperand{w, 1, taps, k, 0}, taps, k, packA);

  // Blocks own disjoint dX planes, so the split is deterministic.
  core::parallel_for(0, ch_blocks * n_blocks, 1, [&](int64_t u0, int64_t u1) {
    for (int64_t u = u0; u < u1; ++u) {
      const int64_t c0 = u / n_blocks * kDxChannels;
      const int64_t c1 = std::min(c0 + kDxChannels, b.channels);
      const int64_t n0 = u % n_blocks * block_samples;
      const int64_t n1 = std::min(n0 + block_samples, b.batch);
      const int64_t rows = (c1 - c0) * kernel_area;
      const int64_t cols = (n1 - n0) * per_sample;
      const float* block_a = packA + c0 * kernel_area * k;  // strip c0·area/MR
      const NchwPanel panel{dy, m, per_sample, n0 * per_sample};
      core::Workspace::Scope block_scratch;
      float* tile = block_scratch.alloc_floats(rows * cols);
      // One tile for the whole block: its A rows (72 KiB of packed Wᵀ per
      // KC block at a 3×3 kernel) stay in L2, and each B micro-panel is
      // packed once.
      compute_tile(0, rows, 0, cols, k, block_a, panel,
                   MatrixStore{tile, cols, /*accumulate=*/false});
      drain_planes(b, tile, cols, c0, c1, n0, n1, dx);
    }
  });
}

}  // namespace deco::detail
