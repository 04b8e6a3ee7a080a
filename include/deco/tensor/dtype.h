// Storage dtypes and quantization codecs for tensor containers and caches.
//
// The paper's whole point is memory-efficient on-device learning, so the
// bytes a condensed cache or checkpoint actually *stores* matter as much as
// the algorithm. This header defines the storage dtypes the v3 DECOTNSR
// container and the in-memory caches understand:
//
//   * fp32 — raw IEEE-754 single precision (the identity codec).
//   * fp16 — IEEE-754 binary16, scalar round-to-nearest-even conversion.
//            2.0x smaller; NaN/Inf preserved, f32 denormals flush to zero.
//   * int8 — ggml-style block quantization: each block of `block` elements
//            stores an f16 scale, an f16 zero-point and one u8 code per
//            element (block 32 -> 36 bytes per 128 logical bytes, 3.56x).
//
// Codec contract (docs/EXTENDING.md section 10):
//   * Bitwise-deterministic scalar reference: encode/decode are serial
//     element loops with no data-dependent reassociation, so encoded bytes
//     (and decoded floats) are identical at any DECO_NUM_THREADS and across
//     runs. Vectorized codecs, when they land, must match these bytes.
//   * decode never fabricates NaN/Inf: int8 scale/zero-point are clamped to
//     the finite f16 range before rounding, and non-finite inputs saturate
//     deterministically (NaN -> the block zero-point, +/-Inf -> the block
//     max/min code). fp16 propagates NaN/Inf exactly.
//   * fp32 is the identity: encode/decode round-trip bit-exactly, which is
//     what keeps default-policy caches and v3-fp32 files byte-identical to
//     their fp32 sources.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "deco/tensor/tensor.h"

namespace deco {

/// Storage dtype of a serialized tensor payload or an in-memory cache.
/// The numeric values are the on-disk v3 dtype tags — never reorder.
enum class DType : uint8_t {
  kF32 = 0,  ///< raw f32 (identity codec)
  kF16 = 1,  ///< IEEE binary16, round-to-nearest-even
  kQ8 = 2,   ///< int8 block quantization (per-block f16 scale + zero-point)
};

/// Default int8 quantization block length, in elements (ggml's Q8 block).
constexpr int64_t kDefaultQuantBlock = 32;

/// "fp32" | "fp16" | "int8" — the config-file spelling.
std::string dtype_name(DType d);
/// Parses dtype_name output; throws deco::Error naming the bad value.
DType dtype_from_name(const std::string& name);
/// True when `tag` is a known on-disk dtype tag.
bool dtype_tag_valid(uint8_t tag);

/// Scalar f32 <-> IEEE binary16 conversion (round-to-nearest-even; f32
/// denormals flush to +/-0, overflow saturates to +/-Inf, NaN stays NaN).
uint16_t f32_to_f16(float v);
float f16_to_f32(uint16_t h);

/// Stored payload bytes for `numel` elements at dtype `d`. `block` only
/// matters for kQ8 (4 bytes of f16 scale/zero-point per started block).
int64_t dtype_stored_bytes(DType d, int64_t numel, int64_t block);

/// Encodes `n` floats into `dst` (which must hold dtype_stored_bytes(...)).
void dtype_encode(DType d, const float* src, int64_t n, uint8_t* dst,
                  int64_t block);
/// Decodes `n` elements from `src` into `dst`.
void dtype_decode(DType d, const uint8_t* src, int64_t n, float* dst,
                  int64_t block);

/// Quantized in-memory tensor: the canonical stored form of a quantized
/// cache. Holds the encoded bytes plus enough metadata to decode; the fp32
/// working copies the learners compute on are decoded FROM this, so
/// "resident fp32 view == decode(stored bytes)" is the storage invariant
/// (save/load round-trips are then byte-identical on the stored form even
/// though quantization itself is lossy).
class QTensor {
 public:
  QTensor() = default;

  /// Encodes `t` at dtype `d`. fp32 is the identity (bit-exact payload).
  static QTensor encode(const Tensor& t, DType d,
                        int64_t block = kDefaultQuantBlock);
  /// Wraps already-encoded bytes (deserialization path). Throws on a size
  /// mismatch between `bytes` and the declared geometry.
  static QTensor from_bytes(DType d, int64_t block, std::vector<int64_t> shape,
                            std::vector<uint8_t> bytes);

  /// Decodes into a fresh tensor of the original shape.
  Tensor decode() const;
  /// Decodes into `dst` (numel() floats), no allocation.
  void decode_into(float* dst) const;
  /// Re-encodes `t` (same shape) into the existing byte storage in place.
  void reencode(const Tensor& t);

  bool valid() const { return numel_ >= 0 && !shape_.empty(); }
  DType dtype() const { return dtype_; }
  int64_t block() const { return block_; }
  int64_t numel() const { return numel_; }
  const std::vector<int64_t>& shape() const { return shape_; }
  /// Bytes actually held (the post-quantization stored figure).
  int64_t stored_bytes() const { return static_cast<int64_t>(bytes_.size()); }
  /// Bytes the same tensor would occupy as raw f32.
  int64_t logical_bytes() const {
    return numel_ * static_cast<int64_t>(sizeof(float));
  }
  const uint8_t* data() const { return bytes_.data(); }

 private:
  DType dtype_ = DType::kF32;
  int64_t block_ = kDefaultQuantBlock;
  int64_t numel_ = -1;
  std::vector<int64_t> shape_;
  std::vector<uint8_t> bytes_;
};

/// A learner's cache storage policy, promoted through runtime::ConfigMap:
/// the dtype the condensed/replay cache is stored at (deco.cache_dtype) and
/// the int8 block length (deco.quant_block). The checkpoint dtype is the
/// runtime's (runtime.checkpoint_dtype, via set_checkpoint_dtype).
/// validate() is the one range authority.
struct StoragePolicy {
  DType cache_dtype = DType::kF32;
  int64_t block = kDefaultQuantBlock;

  /// Throws deco::Error on an out-of-range block (must be in [4, 1024]).
  void validate() const;
};

}  // namespace deco
