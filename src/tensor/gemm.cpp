// Packed blocked GEMM (GotoBLAS/BLIS structure, scalar-source microkernels)
// and the indirect convolution products built on the same register tile.
//
// Register tile: MR rows × NR lanes, accumulated over one KC block of k at a
// time. The NR lanes always come from a packed panel (element (kk, c) at
// kk*NR + c, edge lanes zero-padded); the MR rows are broadcast. Padding
// only ever lands in lanes or rows that the writeback discards, so Inf/NaN
// semantics of the real elements are untouched. The k dimension is never
// padded.
//
// Two kinds of products run on that tile:
//   * packed (gemm_strided, gemm_conv_dx): A is packed whole into MR-row
//     strips (element (kk, r) at kk*MR + r), B one KC×NR micro-panel at a
//     time inside the tile loop (compute_tile), or, for dX, once per
//     column block and shared by every channel block of it;
//   * indirect (gemm_conv, gemm_conv_nt): the broadcast operand is the
//     implicit im2col matrix of a zero-bordered input, read in place as
//     A(r, kk) = x[row_off[r] + k_off[kk]] through two offset tables (one
//     pixel origins, the other tap offsets), and the packed NR-lane operand
//     is the small one: Wᵀ for the forward, a KC×NR block of dyᵀ for dW.
//     Output channels sit in the lanes, and the tile is transposed on its
//     way into the NCHW output or the row-major dW. Nothing the size of the
//     im2col matrix is packed (the indirect convolution of Dukhan, arXiv
//     1907.02129).
//
// Determinism: every output element is the sum, over KC blocks in ascending
// order, of one register-tile FMA chain over k ascending within the block,
// started from zero. That order is a pure function of (k, KC) — never of how
// rows and columns are tiled, of which operand is broadcast, nor of the
// thread count. The product inside an FMA is exact, so fma(w, x, acc) and
// fma(x, w, acc) have the same bits, and the indirect products are bitwise
// equal to the packed ones on materialized operands. Parallelism only
// carves ownership: each output tile, pixel strip, tap strip or dX sample
// block is written by exactly one task. That satisfies contract shapes (a)
// and (c) in core/thread_pool.h, so results are bitwise identical at any
// DECO_NUM_THREADS.
//
// Packed panels and offset tables come from the calling thread's Workspace
// arena or the stack, so a steady-state training loop runs these kernels
// with zero heap traffic.

#include "deco/tensor/gemm.h"

#include <algorithm>
#include <new>

#include "deco/core/telemetry.h"
#include "deco/core/thread_pool.h"
#include "deco/core/workspace.h"

namespace deco::detail {

namespace {

// Register tile. MR*NR accumulators must fit the vector register file:
// 8 rows × 32 lanes = 16 AVX-512 (or 32 AVX2) vector accumulators plus a
// broadcast register — comfortably inside 32 zmm / tight but viable in ymm.
constexpr int64_t kMR = 8;
constexpr int64_t kNR = 32;
// Cache blocking. KC sizes one packed micro-panel (KC*NR floats = 32 KiB)
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
// Multiply-adds per parallel task of an indirect product, so small layers
// run as one task and large ones split into enough to load every worker.
constexpr int64_t kTaskFmas = 1 << 19;

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

// Copies len ≤ NR floats. The fixed trip count with a masked tail keeps GCC
// from turning a short run-time-length copy into a memcpy call; it compiles
// to masked vector moves.
void copy_lanes(float* d, const float* s, int64_t len) {
  for (int64_t i = 0; i < kNR; ++i) {
    if (i < len) d[i] = s[i];
  }
}

// Zeroes lanes [cols, NR), in the same masked form (a plain loop becomes a
// memset call).
void zero_tail(float* d, int64_t cols) {
  for (int64_t c = 0; c < kNR; ++c) {
    if (c >= cols) d[c] = 0.0f;
  }
}

// ---- packed products -----------------------------------------------------------

// A(i, kk) = a[i*rs + kk*cs], packed whole into MR-row strips.
void pack_a(const float* a, int64_t rs, int64_t cs, int64_t m, int64_t k,
            float* pack) {
  const int64_t strips = div_up(m, kMR);
  core::parallel_for(0, strips, strip_grain(k * kMR),
                     [&](int64_t s0, int64_t s1) {
    for (int64_t s = s0; s < s1; ++s) {
      float* d = pack + s * k * kMR;
      const int64_t i0 = s * kMR;
      const int64_t rows = std::min<int64_t>(kMR, m - i0);
      for (int64_t kk = 0; kk < k; ++kk, d += kMR) {
        const float* src = a + i0 * rs + kk * cs;
        int64_t r = 0;
        for (; r < rows; ++r) d[r] = src[r * rs];
        for (; r < kMR; ++r) d[r] = 0.0f;
      }
    }
  });
}

// B micro-panel sources for compute_tile. Each is called as
// panel(kc_begin, kc, j0, cols, scratch) and returns the KC×NR panel of B
// rows [kc_begin, kc_begin + kc) × columns [j0, j0 + cols), lanes
// [cols, NR) zeroed, packing it into `scratch` if it is not packed yet.

// B(kk, j) = b[kk*rs + j*cs], packed on demand.
struct StridedPanel {
  const float* b;
  int64_t rs, cs;

  const float* operator()(int64_t kc_begin, int64_t kc, int64_t j0,
                          int64_t cols, float* scratch) const {
    float* d = scratch;
    const float* src = b + kc_begin * rs + j0 * cs;
    for (int64_t kk = 0; kk < kc; ++kk, d += kNR, src += rs) {
      for (int64_t c = 0; c < cols; ++c) d[c] = src[c * cs];
      zero_tail(d, cols);
    }
    return scratch;
  }
};

// Panels packed ahead of the tile loop: the NR-column strip s of a k-row
// operand at p + s*k*NR, row kk at kk*NR.
struct PackedPanels {
  const float* p;
  int64_t k;

  const float* operator()(int64_t kc_begin, int64_t /*kc*/, int64_t j0,
                          int64_t /*cols*/, float* /*scratch*/) const {
    return p + (j0 / kNR * k + kc_begin) * kNR;
  }
};

// Row-major C with leading dimension ldc. The first k block stores unless
// the call accumulates; every later block adds.
struct MatrixStore {
  float* c;
  int64_t ldc;
  bool accumulate;

  void operator()(int64_t i0, int64_t rows, int64_t j0, int64_t cols,
                  const float* acc, bool first) const {
    const bool store = first && !accumulate;
    for (int64_t r = 0; r < rows; ++r) {
      float* crow = c + (i0 + r) * ldc + j0;
      const float* arow = acc + r * kNR;
      if (store) {
        copy_lanes(crow, arow, cols);
      } else {
        for (int64_t cc = 0; cc < cols; ++cc) crow[cc] += arow[cc];
      }
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

// The packed compute loop: C rows [i_begin, i_end) × columns [j_begin,
// j_end) of a product with contraction length k, A packed whole in `packA`
// (strip s at s*k*MR), B panels from `panels`.
template <typename Panels>
void compute_tile(int64_t i_begin, int64_t i_end, int64_t j_begin,
                  int64_t j_end, int64_t k, const float* packA,
                  const Panels& panels, const MatrixStore& store) {
  alignas(64) float scratch[kKC * kNR];
  for (int64_t kc_begin = 0; kc_begin < k; kc_begin += kKC) {
    const int64_t kc = std::min(kKC, k - kc_begin);
    for (int64_t jr = j_begin; jr < j_end; jr += kNR) {
      const int64_t cols = std::min(kNR, j_end - jr);
      const float* panel = panels(kc_begin, kc, jr, cols, scratch);
      for (int64_t ir = i_begin; ir < i_end; ir += kMR) {
        const float* ap = packA + ((ir / kMR) * k + kc_begin) * kMR;
        alignas(64) float acc[kMR * kNR] = {};
        micro_kernel(ap, panel, kc, acc);
        store(ir, std::min(kMR, i_end - ir), jr, cols, acc, kc_begin == 0);
      }
    }
  }
}

// ---- indirect convolution products ---------------------------------------------

// The offset tables of the implicit im2col matrix of `b`, whose element
// ((ch, ky, kx), (n, oy, ox)) is padded[n][ch][oy*stride + ky][ox*stride +
// kx]: each output pixel's origin in `padded` (sample base included) and
// each tap's offset from a pixel's origin.

// Output pixels in order from p0: each one's origin and its (sample,
// pixel-in-sample) position. Decodes p0 once, then steps counters.
struct PixelWalk {
  const ConvOperand& b;
  int64_t n, pix, oy, ox, row;

  PixelWalk(const ConvOperand& op, int64_t p0)
      : b(op),
        n(p0 / (op.out_h * op.out_w)),
        pix(p0 % (op.out_h * op.out_w)),
        oy(pix / op.out_w),
        ox(pix % op.out_w),
        row(n * sample_size() + oy * op.stride * op.padded_w) {}

  int64_t sample_size() const { return b.channels * b.padded_h * b.padded_w; }
  int64_t origin() const { return row + ox * b.stride; }
  void next() {
    ++pix;
    if (++ox == b.out_w) {
      ox = 0;
      row += b.stride * b.padded_w;
      if (++oy == b.out_h) oy = 0, pix = 0, row = ++n * sample_size();
    }
  }
};

// Every tap's (ch, ky, kx) offset from a pixel's origin, in tap order.
void tap_offsets(const ConvOperand& b, int64_t* off) {
  const int64_t plane = b.padded_h * b.padded_w;
  for (int64_t ch = 0; ch < b.channels; ++ch) {
    for (int64_t ky = 0; ky < b.kernel_h; ++ky) {
      for (int64_t kx = 0; kx < b.kernel_w; ++kx) {
        *off++ = ch * plane + ky * b.padded_w + kx;
      }
    }
  }
}

// Offset tables live in Workspace scratch next to the float panels; the
// placement new starts the int64 objects' lifetimes in that storage.
int64_t* alloc_offsets(core::Workspace::Scope& scratch, int64_t n) {
  static_assert(sizeof(int64_t) == 2 * sizeof(float));
  return new (scratch.alloc_floats(2 * n)) int64_t[n];
}

// The MR row pointers of an indirect tile: x + row_off[r]. Rows past `rows`
// repeat row 0; their results land in tile rows the store discards.
struct TileRows {
  const float* p[kMR];

  TileRows(const float* x, const int64_t* row_off, int64_t rows) {
    for (int64_t r = 0; r < kMR; ++r) p[r] = x + row_off[r < rows ? r : 0];
  }
};

// acc[r][c] += sum over kk < kc of rows[r][k_off[kk]] * panel(kk, c): the
// same FMA chain as micro_kernel, with A read through the offset tables.
void indirect_kernel(const TileRows& rows, const int64_t* k_off,
                     const float* bp, int64_t kc, float acc[kMR * kNR]) {
  const TileRows t = rows;  // row pointers stay in registers
  for (int64_t kk = 0; kk < kc; ++kk) {
    const int64_t off = k_off[kk];
    const float* brow = bp + kk * kNR;
    for (int64_t r = 0; r < kMR; ++r) {
      const float ar = t.p[r][off];
      for (int64_t c = 0; c < kNR; ++c) acc[r * kNR + c] += ar * brow[c];
    }
  }
}

// Writes (or, with kAdd, adds) the MR×NR tile `t` transposed: row r, lane c
// goes to dst[c*ld + r], for r < rows and c < cols. The tile is transposed
// through a fixed-size stack tile first, so a full tile leaves as one
// MR-float run per lane.
template <bool kAdd>
void store_transposed(const float* t, int64_t rows, int64_t cols, float* dst,
                      int64_t ld) {
  // Lane-major loop order: GCC turns it into vpermt2ps shuffles, where the
  // row-major order compiles to scalar moves.
  alignas(64) float tt[kNR * kMR];
  for (int64_t c = 0; c < kNR; ++c) {
    for (int64_t r = 0; r < kMR; ++r) tt[c * kMR + r] = t[r * kNR + c];
  }
  // A partial tile takes a fixed trip count with a mask, as in copy_lanes.
  const bool full = rows == kMR;
  for (int64_t c = 0; c < cols; ++c, dst += ld) {
    const float* s = tt + c * kMR;
    if (full) {
      for (int64_t r = 0; r < kMR; ++r) {
        if constexpr (kAdd) dst[r] += s[r]; else dst[r] = s[r];
      }
    } else {
      for (int64_t r = 0; r < kMR; ++r) {
        if (r >= rows) continue;
        if constexpr (kAdd) dst[r] += s[r]; else dst[r] = s[r];
      }
    }
  }
}

// Tile rows of a forward product are `rows` output pixels from pixel `pix`
// of sample `n` on, lanes [o0, o0 + cols) output channels; channel o of
// pixel (n, pix) lives at out[(n*m + o)*per_sample + pix]. A strip inside
// one sample leaves as one transposed store; one that crosses a sample
// boundary is stored row by row.
void store_nchw(const float* t, int64_t n, int64_t pix, int64_t rows,
                int64_t o0, int64_t cols, int64_t m, int64_t per_sample,
                float* out) {
  if (pix + rows <= per_sample) {
    store_transposed<false>(t, rows, cols,
                            out + (n * m + o0) * per_sample + pix, per_sample);
    return;
  }
  for (int64_t r = 0; r < rows; ++r) {
    float* dst = out + (n * m + o0) * per_sample + pix;
    for (int64_t c = 0; c < cols; ++c) dst[c * per_sample] = t[r * kNR + c];
    if (++pix == per_sample) pix = 0, ++n;
  }
}

// dyᵀ rows [p0, p0 + kc) × lanes [o0, o0 + cols) packed into the KC×NR block
// `d`, lanes [cols, NR) zeroed; dy is [batch, m, per_sample] (NCHW). The
// rows split into runs at sample boundaries, and a run moves in groups of 8
// pixels through a fixed NR×8 stack tile: both of its loops have fixed
// trip counts in lane-major order, which GCC compiles to vector moves and
// vpermt2ps shuffles instead of a strided gather per element.
void pack_dy_t(const float* dy, int64_t m, int64_t per_sample, int64_t p0,
               int64_t kc, int64_t o0, int64_t cols, float* d) {
  alignas(64) float t[kNR * 8] = {};
  int64_t n = p0 / per_sample, pix = p0 % per_sample;
  for (int64_t row = 0; row < kc; pix = 0, ++n) {
    const int64_t len = std::min(kc - row, per_sample - pix);
    const float* src = dy + (n * m + o0) * per_sample + pix;
    float* drun = d + row * kNR;
    int64_t i0 = 0;
    for (; i0 + 8 <= len; i0 += 8) {
      for (int64_t c = 0; c < cols; ++c) {
        for (int64_t i = 0; i < 8; ++i) t[c * 8 + i] = src[c * per_sample + i0 + i];
      }
      float* db = drun + i0 * kNR;
      for (int64_t c = 0; c < kNR; ++c) {
        for (int64_t i = 0; i < 8; ++i) db[i * kNR + c] = t[c * 8 + i];
      }
    }
    for (int64_t i = i0; i < len; ++i) {
      float* dr = drun + i * kNR;
      for (int64_t c = 0; c < cols; ++c) dr[c] = src[c * per_sample + i];
      zero_tail(dr, cols);
    }
    row += len;
  }
}

// ---- dX --------------------------------------------------------------------------

// dy [batch, channels, per_sample] read in place as the channels × (batch ·
// per_sample) matrix B(ch, n*per_sample + pix). Packs columns [col0, col0 +
// cols) whole, as NR-column strips of all `channels` rows (PackedPanels
// layout). Each strip's columns split into runs at sample boundaries.
void pack_nchw_panels(const float* dy, int64_t channels, int64_t per_sample,
                      int64_t col0, int64_t cols, float* pack) {
  struct Run {
    int64_t col, len;
    const float* src;  // the run's first element in channel 0
  };
  Run runs[kNR];
  for (int64_t j0 = 0; j0 < cols; j0 += kNR, pack += channels * kNR) {
    const int64_t strip_cols = std::min(kNR, cols - j0);
    int64_t num_runs = 0;
    int64_t sample = (col0 + j0) / per_sample;
    int64_t pix = (col0 + j0) % per_sample;
    for (int64_t col = 0; col < strip_cols; pix = 0, ++sample) {
      const int64_t len = std::min(strip_cols - col, per_sample - pix);
      runs[num_runs++] = {col, len, dy + sample * channels * per_sample + pix};
      col += len;
    }
    float* d = pack;
    for (int64_t ch = 0; ch < channels; ++ch, d += kNR) {
      for (int64_t r = 0; r < num_runs; ++r) {
        copy_lanes(d + runs[r].col, runs[r].src + ch * per_sample, runs[r].len);
      }
      zero_tail(d, strip_cols);
    }
  }
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
  const int64_t a_strips = div_up(m, kMR);
  const int64_t tiles_m = div_up(m, kMC);
  const int64_t tiles_n = div_up(n, kNC);

  DECO_TRACE_SCOPE("tensor/gemm");
  // Every MC row tile packs each B micro-panel once.
  note_gemm(m, n, k, (a_strips * kMR + tiles_m * div_up(n, kNR) * kNR) * k);

  core::Workspace::Scope scratch;
  float* packA = scratch.alloc_floats(a_strips * kMR * k);
  pack_a(a, a_rs, a_cs, m, k, packA);

  const StridedPanel panels{b, b_rs, b_cs};
  const MatrixStore store{c, n, accumulate};
  // MC×NC output tiles, one task each.
  core::parallel_for(0, tiles_m * tiles_n, 1, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t i_begin = t / tiles_n * kMC, j_begin = t % tiles_n * kNC;
      compute_tile(i_begin, std::min(i_begin + kMC, m), j_begin,
                   std::min(j_begin + kNC, n), k, packA, panels, store);
    }
  });
}

void gemm_conv(int64_t m, const float* w, const float* bias,
               const ConvOperand& b, float* out) {
  // Cᵀ [pixels × m] = im2colᵀ · Wᵀ: pixel strips broadcast, channels in lanes.
  const int64_t taps = b.rows(), pixels = b.cols();
  if (m <= 0 || pixels <= 0 || taps <= 0) return;
  const int64_t per_sample = b.out_h * b.out_w;
  const int64_t panels = div_up(m, kNR), strips = div_up(pixels, kMR);

  DECO_TRACE_SCOPE("tensor/gemm");
  // Only Wᵀ is packed, once.
  note_gemm(m, pixels, taps, panels * taps * kNR);

  core::Workspace::Scope scratch;
  // Wᵀ as `panels` NR-lane panels of all taps (PackedPanels layout), and
  // the bias in the same lanes.
  float* wt = scratch.alloc_floats(panels * taps * kNR + panels * kNR);
  float* bias_lanes = wt + panels * taps * kNR;
  for (int64_t p = 0; p < panels; ++p) {
    const int64_t o0 = p * kNR, cols = std::min(kNR, m - o0);
    float* d = wt + p * taps * kNR;
    for (int64_t kk = 0; kk < taps; ++kk, d += kNR) {
      for (int64_t c = 0; c < cols; ++c) d[c] = w[(o0 + c) * taps + kk];
      zero_tail(d, cols);
    }
    copy_lanes(bias_lanes + p * kNR, bias + o0, cols);
    zero_tail(bias_lanes + p * kNR, cols);
  }
  int64_t* k_off = alloc_offsets(scratch, taps);
  tap_offsets(b, k_off);

  // Pixel strips own their outputs.
  const int64_t grain = std::max<int64_t>(1, kTaskFmas / (kMR * taps * kNR * panels));
  core::parallel_for(0, strips, grain, [&](int64_t s0, int64_t s1) {
    PixelWalk walk(b, s0 * kMR);
    for (int64_t s = s0; s < s1; ++s) {
      const int64_t rows = std::min(kMR, pixels - s * kMR);
      const int64_t n0 = walk.n, pix0 = walk.pix;
      int64_t row_off[kMR] = {};
      for (int64_t r = 0; r < rows; ++r, walk.next()) row_off[r] = walk.origin();
      const TileRows tile_rows(b.padded, row_off, rows);
      for (int64_t p = 0; p < panels; ++p) {
        const float* wp = wt + p * taps * kNR;
        // The first KC block accumulates in `tile`, each later one in `acc`
        // and is then added: the bits of storing the first block and adding
        // the rest into the output.
        alignas(64) float tile[kMR * kNR] = {};
        indirect_kernel(tile_rows, k_off, wp, std::min(kKC, taps), tile);
        for (int64_t kc_begin = kKC; kc_begin < taps; kc_begin += kKC) {
          alignas(64) float acc[kMR * kNR] = {};
          indirect_kernel(tile_rows, k_off + kc_begin, wp + kc_begin * kNR,
                          std::min(kKC, taps - kc_begin), acc);
          for (int64_t i = 0; i < kMR * kNR; ++i) tile[i] += acc[i];
        }
        // The bias comes after the last block, as its own rounding.
        const float* bl = bias_lanes + p * kNR;
        for (int64_t r = 0; r < kMR; ++r) {
          for (int64_t c = 0; c < kNR; ++c) tile[r * kNR + c] += bl[c];
        }
        store_nchw(tile, n0, pix0, rows, p * kNR, std::min(kNR, m - p * kNR),
                   m, per_sample, out);
      }
    }
  });
}

void gemm_conv_nt(int64_t m, const float* dy, const ConvOperand& b,
                  float* c) {
  // dWᵀ [taps × m] += im2col · dyᵀ: tap strips broadcast, channels in lanes.
  const int64_t taps = b.rows(), pixels = b.cols();
  if (m <= 0 || taps <= 0 || pixels <= 0) return;
  const int64_t per_sample = b.out_h * b.out_w;
  const int64_t panels = div_up(m, kNR), strips = div_up(taps, kMR);

  DECO_TRACE_SCOPE("tensor/gemm");
  // Only dyᵀ is packed, once, one KC×NR block at a time.
  note_gemm(m, taps, pixels, panels * pixels * kNR);

  core::Workspace::Scope scratch;
  int64_t* row_off = alloc_offsets(scratch, taps);
  tap_offsets(b, row_off);
  const int64_t grain = std::max<int64_t>(1, kTaskFmas / (kMR * kKC * kNR));

  alignas(64) float dyt[kKC * kNR];
  int64_t k_off[kKC];
  // KC blocks in ascending order; each is added into dW by every tap strip
  // before the next starts. Tap strips own their dW columns.
  for (int64_t kc_begin = 0; kc_begin < pixels; kc_begin += kKC) {
    const int64_t kc = std::min(kKC, pixels - kc_begin);
    PixelWalk walk(b, kc_begin);
    for (int64_t i = 0; i < kc; ++i, walk.next()) k_off[i] = walk.origin();
    for (int64_t p = 0; p < panels; ++p) {
      const int64_t o0 = p * kNR, cols = std::min(kNR, m - o0);
      pack_dy_t(dy, m, per_sample, kc_begin, kc, o0, cols, dyt);
      core::parallel_for(0, strips, grain, [&](int64_t s0, int64_t s1) {
        for (int64_t s = s0; s < s1; ++s) {
          const int64_t t0 = s * kMR, rows = std::min(kMR, taps - t0);
          alignas(64) float acc[kMR * kNR] = {};
          indirect_kernel(TileRows(b.padded, row_off + t0, rows), k_off, dyt,
                          kc, acc);
          store_transposed<true>(acc, rows, cols, c + o0 * taps + t0, taps);
        }
      });
    }
  }
}

void gemm_conv_dx(int64_t m, const float* w, const float* dy,
                  const ConvOperand& b, float* dx) {
  // The product is Wᵀ [taps × m] · dy [m × batch·per_sample]: its k is m.
  const int64_t taps = b.rows(), n = b.cols(), k = m;
  if (taps <= 0 || n <= 0 || k <= 0) return;
  const int64_t kernel_area = b.kernel_h * b.kernel_w;
  const int64_t per_sample = b.out_h * b.out_w;
  const int64_t block_samples = std::max<int64_t>(1, kDxCols / per_sample);
  const int64_t n_blocks = div_up(b.batch, block_samples);
  const int64_t a_strips = div_up(taps, kMR);

  DECO_TRACE_SCOPE("tensor/gemm");
  // Wᵀ once, and each column block's dy panels once for all channel blocks.
  int64_t col_strips = 0;
  for (int64_t n0 = 0; n0 < b.batch; n0 += block_samples) {
    col_strips +=
        div_up(std::min(block_samples, b.batch - n0) * per_sample, kNR);
  }
  note_gemm(taps, n, k, (a_strips * kMR + col_strips * kNR) * k);

  core::Workspace::Scope scratch;
  float* packA = scratch.alloc_floats(a_strips * kMR * k);
  pack_a(w, 1, taps, taps, k, packA);

  // Sample blocks own their whole dX planes, so the split is deterministic.
  core::parallel_for(0, n_blocks, 1, [&](int64_t u0, int64_t u1) {
    for (int64_t u = u0; u < u1; ++u) {
      const int64_t n0 = u * block_samples;
      const int64_t n1 = std::min(n0 + block_samples, b.batch);
      const int64_t cols = (n1 - n0) * per_sample;
      core::Workspace::Scope block_scratch;
      float* packB = block_scratch.alloc_floats(div_up(cols, kNR) * k * kNR);
      pack_nchw_panels(dy, m, per_sample, n0 * per_sample, cols, packB);
      float* tile = block_scratch.alloc_floats(kDxChannels * kernel_area * cols);
      for (int64_t c0 = 0; c0 < b.channels; c0 += kDxChannels) {
        const int64_t c1 = std::min(c0 + kDxChannels, b.channels);
        // One tile for the block: its A rows (72 KiB of packed Wᵀ per KC
        // block at a 3×3 kernel) stay in L2.
        compute_tile(0, (c1 - c0) * kernel_area, 0, cols, k,
                     packA + c0 * kernel_area * k, PackedPanels{packB, k},
                     MatrixStore{tile, cols, /*accumulate=*/false});
        drain_planes(b, tile, cols, c0, c1, n0, n1, dx);
      }
    }
  });
}

}  // namespace deco::detail
