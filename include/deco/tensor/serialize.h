// Binary tensor serialization and PPM image export.
//
// On-device deployments need to persist two things across power cycles: the
// model parameters and the condensed buffer (which *is* the distilled
// knowledge). The format is a deliberately simple little-endian container:
//
//   v2: magic "DECOTNSR" | u32 version=2 | u32 ndim | i64 dims[ndim]
//       | f32 data[] | u32 crc32
//   v3: magic "DECOTNSR" | u32 version=3 | u8 dtype | u8 reserved=0
//       | u16 block | u32 ndim | i64 dims[ndim] | payload[] | u32 crc32
//
// v3 carries a storage dtype tag (deco/tensor/dtype.h): fp32 payloads are
// raw f32 (bit-exact round-trip with the source tensor), fp16 payloads are
// binary16, int8 payloads are block-quantized (per-block f16 scale +
// zero-point; `block` is the block length in elements, 0 for non-quantized
// dtypes). The CRC32 trailer (IEEE polynomial, over everything between the
// magic and the trailer) detects the torn/bit-rotted files a
// power-loss-prone device produces — in v3 it covers the *encoded* payload,
// so corruption is caught before any dequantization. v1 (no trailer) and v2
// files remain readable forever; the 2-argument write_tensor still emits v2
// byte-identically so existing fp32 files and golden fixtures are stable.
// File-path saves are atomic: data is written to `<path>.tmp` and renamed
// over the target, so a crash mid-save never destroys the previous state.
//
// PPM export renders CHW float images (clamped to [0,1]) as 8-bit P6 files —
// the standard way condensation papers visualize synthetic images.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <type_traits>
#include <vector>

#include "deco/tensor/dtype.h"
#include "deco/tensor/tensor.h"

namespace deco {

/// IEEE CRC32 (the zlib/PNG polynomial) of `n` bytes, continuing from `seed`
/// (pass the previous return value to checksum data in chunks; 0 to start).
uint32_t crc32(const void* data, size_t n, uint32_t seed = 0);

// ---- field codecs: every container is built from these ----------------------
//
// Fields are raw host-order (little-endian) bytes; a non-null `crc` folds
// the bytes written or read into a running CRC32. Writes report failure
// through the stream state; reads throw deco::Error when the stream ends.

void write_bytes(std::ostream& os, const void* data, size_t n,
                 uint32_t* crc = nullptr);
void read_bytes(std::istream& is, void* data, size_t n,
                uint32_t* crc = nullptr);

template <typename T>
void write_pod(std::ostream& os, const T& v, uint32_t* crc = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_bytes(os, &v, sizeof(T), crc);
}

template <typename T>
T read_pod(std::istream& is, uint32_t* crc = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v{};
  read_bytes(is, &v, sizeof(T), crc);
  return v;
}

/// u32 length | bytes. Names and tags only: read_string rejects lengths of
/// 4096 or more before allocating.
void write_string(std::ostream& os, const std::string& s);
std::string read_string(std::istream& is);

/// Reads the 8-byte magic that opens every DECO container ("DECOTNSR",
/// "DECOCKPT", "DECOLSAV"). A shorter stream yields the bytes it had.
std::string read_magic(std::istream& is);

/// Writes `bytes` to `path` atomically: the payload goes to `<path>.tmp`
/// first and is renamed over `path` only after a successful flush, so readers
/// never observe a torn file. Throws deco::Error on I/O failure.
void atomic_write_file(const std::string& path, const std::string& bytes);

/// Writes one fp32 tensor to a binary stream (format v2, CRC32-trailed).
/// Kept byte-identical to the pre-dtype writer so legacy fixtures and
/// default-policy state files never change. Throws deco::Error on failure.
void write_tensor(std::ostream& os, const Tensor& t);

/// Writes one tensor at storage dtype `dtype` (format v3, CRC32-trailed).
/// kF32 stores the exact bits (read_tensor round-trips bit-exactly); kF16 /
/// kQ8 quantize through the scalar reference codec in dtype.h. `block` is
/// the kQ8 block length (ignored for other dtypes).
void write_tensor(std::ostream& os, const Tensor& t, DType dtype,
                  int64_t block = kDefaultQuantBlock);

/// Writes an already-encoded quantized tensor (format v3) without
/// re-encoding — the stored bytes go to the stream verbatim, which is what
/// makes save -> load -> save byte-identical for quantized caches even
/// though quantization itself is not idempotent.
void write_qtensor(std::ostream& os, const QTensor& q);

/// Reads one tensor written by any write_tensor — v3 (dtype-aware, payload
/// dequantized to fp32), v2 (CRC-verified) or legacy v1. Throws deco::Error
/// on malformed, truncated, oversized or corrupted input, before any
/// allocation for implausible headers.
Tensor read_tensor(std::istream& is);

/// Reads one tensor record into its *stored* form without dequantizing:
/// v3 records keep their encoded payload byte-for-byte; v1/v2 records come
/// back as fp32 QTensors wrapping the raw data. Same validation and CRC
/// discipline as read_tensor.
QTensor read_qtensor(std::istream& is);

/// Convenience file-path wrappers. save_tensor is atomic (see above).
void save_tensor(const std::string& path, const Tensor& t);
Tensor load_tensor(const std::string& path);

/// Shape/version/dtype metadata of one serialized tensor, read without
/// touching its payload (checkpoint-inspection tooling).
struct TensorInfo {
  uint32_t version = 0;            ///< container version (1, 2 or 3)
  DType dtype = DType::kF32;       ///< storage dtype (always kF32 for v1/v2)
  int64_t block = 0;               ///< kQ8 block length; 0 otherwise
  std::vector<int64_t> shape;
  int64_t numel = 0;
  int64_t payload_bytes = 0;       ///< stored (possibly compressed) payload
                                   ///< bytes, CRC trailer excluded
};

/// Reads one tensor HEADER from the stream and seeks past the payload (and
/// v2/v3 CRC trailer) without loading or checksumming the data, leaving the
/// stream at the next record. Throws deco::Error on malformed headers or a
/// stream too short to contain the declared payload.
TensorInfo skip_tensor(std::istream& is);

/// Writes a [3, H, W] (or [1, H, W]) float image in [0, 1] as binary PPM/PGM.
void write_ppm(const std::string& path, const Tensor& image_chw);

}  // namespace deco
