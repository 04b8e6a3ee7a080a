#include "deco/tensor/serialize.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "deco/tensor/check.h"

namespace deco {

namespace {
constexpr char kMagic[8] = {'D', 'E', 'C', 'O', 'T', 'N', 'S', 'R'};
constexpr uint32_t kVersion = 2;
constexpr uint32_t kLegacyVersion = 1;
constexpr uint32_t kQuantVersion = 3;
/// Total-element cap for read_tensor headers: rejects headers whose dims
/// multiply past 2^31 elements (8 GiB of f32) before any allocation, and
/// makes the numel product itself overflow-proof.
constexpr int64_t kMaxElements = int64_t{1} << 31;

std::array<uint32_t, 256> make_crc_table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

/// Parsed v1/v2/v3 record header — everything between the magic and the
/// payload. When `crc` is non-null the header bytes are folded into it
/// (the discipline the CRC trailer covers); skip_tensor passes null.
struct WireHeader {
  uint32_t version = 0;
  DType dtype = DType::kF32;
  int64_t block = 0;       // kQ8 block length; 0 for other dtypes
  std::vector<int64_t> shape;
  int64_t numel = 0;
  int64_t payload_bytes = 0;
  bool checked = false;    // a CRC trailer follows the payload (v2/v3)
};

WireHeader read_header(std::istream& is, const std::string& who,
                       uint32_t* crc) {
  DECO_CHECK(read_magic(is) == std::string(kMagic, sizeof(kMagic)),
             who + ": bad magic (not a DECO tensor stream)");
  WireHeader h;
  h.version = read_pod<uint32_t>(is, crc);
  DECO_CHECK(h.version == kVersion || h.version == kLegacyVersion ||
                 h.version == kQuantVersion,
             who + ": unsupported version " + std::to_string(h.version));
  h.checked = h.version != kLegacyVersion;
  if (h.version == kQuantVersion) {
    const uint8_t tag = read_pod<uint8_t>(is, crc);
    DECO_CHECK(dtype_tag_valid(tag),
               who + ": unknown dtype tag " + std::to_string(tag));
    h.dtype = static_cast<DType>(tag);
    const uint8_t reserved = read_pod<uint8_t>(is, crc);
    DECO_CHECK(reserved == 0, who + ": unsupported header flags");
    h.block = read_pod<uint16_t>(is, crc);
    if (h.dtype == DType::kQ8) {
      DECO_CHECK(h.block >= 1, who + ": int8 record missing block length");
    } else {
      DECO_CHECK(h.block == 0, who + ": non-quantized record carries a block");
    }
  }
  const uint32_t ndim = read_pod<uint32_t>(is, crc);
  DECO_CHECK(ndim <= 8, who + ": implausible rank");
  h.shape.resize(ndim);
  h.numel = 1;
  for (uint32_t d = 0; d < ndim; ++d) {
    h.shape[d] = read_pod<int64_t>(is, crc);
    DECO_CHECK(h.shape[d] >= 0 && h.shape[d] < (int64_t{1} << 32),
               who + ": implausible dimension");
    // Accumulate against the explicit element cap so the product cannot
    // overflow across up to 8 dimensions.
    if (h.shape[d] == 0) {
      h.numel = 0;
    } else {
      DECO_CHECK(h.numel <= kMaxElements / h.shape[d],
                 who + ": header exceeds the element cap");
      h.numel *= h.shape[d];
    }
  }
  if (ndim == 0) h.numel = 0;
  h.payload_bytes = dtype_stored_bytes(
      h.dtype, h.numel, h.dtype == DType::kQ8 ? h.block : 1);
  return h;
}

/// Emits a v3 record: header + already-encoded payload + CRC trailer.
void write_v3(std::ostream& os, DType dtype, int64_t block,
              const std::vector<int64_t>& shape, const uint8_t* payload,
              int64_t payload_bytes) {
  os.write(kMagic, sizeof(kMagic));
  uint32_t crc = 0;
  write_pod(os, kQuantVersion, &crc);
  write_pod(os, static_cast<uint8_t>(dtype), &crc);
  write_pod(os, uint8_t{0}, &crc);  // reserved
  DECO_CHECK(block >= 0 && block <= 65535,
             "write_tensor: block does not fit the u16 header field");
  write_pod(os, static_cast<uint16_t>(block), &crc);
  write_pod(os, static_cast<uint32_t>(shape.size()), &crc);
  for (int64_t dim : shape) write_pod(os, dim, &crc);
  write_bytes(os, payload, static_cast<size_t>(payload_bytes), &crc);
  write_pod(os, crc);
  DECO_CHECK(static_cast<bool>(os), "write_tensor: stream write failed");
}
}  // namespace

uint32_t crc32(const void* data, size_t n, uint32_t seed) {
  static const std::array<uint32_t, 256> table = make_crc_table();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void write_bytes(std::ostream& os, const void* data, size_t n, uint32_t* crc) {
  os.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  if (crc != nullptr) *crc = crc32(data, n, *crc);
}

void read_bytes(std::istream& is, void* data, size_t n, uint32_t* crc) {
  is.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  DECO_CHECK(static_cast<bool>(is), "binary stream truncated");
  if (crc != nullptr) *crc = crc32(data, n, *crc);
}

void write_string(std::ostream& os, const std::string& s) {
  write_pod(os, static_cast<uint32_t>(s.size()));
  write_bytes(os, s.data(), s.size());
}

std::string read_string(std::istream& is) {
  const uint32_t n = read_pod<uint32_t>(is);
  DECO_CHECK(n < 4096, "read_string: bad string length");
  std::string s(n, '\0');
  read_bytes(is, s.data(), n);
  return s;
}

std::string read_magic(std::istream& is) {
  std::string magic(8, '\0');
  is.read(magic.data(), static_cast<std::streamsize>(magic.size()));
  magic.resize(static_cast<size_t>(is.gcount()));
  return magic;
}

void atomic_write_file(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    DECO_CHECK(os.is_open(), "atomic_write_file: cannot open " + tmp);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.flush();
    DECO_CHECK(static_cast<bool>(os), "atomic_write_file: write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    DECO_CHECK(false, "atomic_write_file: rename to " + path + " failed");
  }
}

void write_tensor(std::ostream& os, const Tensor& t) {
  os.write(kMagic, sizeof(kMagic));
  uint32_t crc = 0;
  write_pod(os, kVersion, &crc);
  write_pod(os, static_cast<uint32_t>(t.ndim()), &crc);
  for (int64_t d = 0; d < t.ndim(); ++d) write_pod(os, t.dim(d), &crc);
  write_bytes(os, t.data(), static_cast<size_t>(t.numel()) * sizeof(float),
              &crc);
  write_pod(os, crc);
  DECO_CHECK(static_cast<bool>(os), "write_tensor: stream write failed");
}

void write_tensor(std::ostream& os, const Tensor& t, DType dtype,
                  int64_t block) {
  if (dtype == DType::kQ8)
    DECO_CHECK(block >= 1 && block <= 65535,
               "write_tensor: int8 block out of range [1, 65535]");
  const int64_t blk = dtype == DType::kQ8 ? block : 1;
  std::vector<uint8_t> payload(
      static_cast<size_t>(dtype_stored_bytes(dtype, t.numel(), blk)));
  dtype_encode(dtype, t.data(), t.numel(), payload.data(), blk);
  write_v3(os, dtype, dtype == DType::kQ8 ? block : 0, t.shape(),
           payload.data(), static_cast<int64_t>(payload.size()));
}

void write_qtensor(std::ostream& os, const QTensor& q) {
  DECO_CHECK(q.valid(), "write_qtensor: empty tensor");
  write_v3(os, q.dtype(), q.dtype() == DType::kQ8 ? q.block() : 0, q.shape(),
           q.data(), q.stored_bytes());
}

Tensor read_tensor(std::istream& is) {
  uint32_t crc = 0;
  const WireHeader h = read_header(is, "read_tensor", &crc);
  if (h.version != kQuantVersion) {
    // v1/v2: raw f32 payload, read straight into the destination tensor.
    Tensor t(h.shape);
    is.read(reinterpret_cast<char*>(t.data()),
            static_cast<std::streamsize>(h.numel * sizeof(float)));
    DECO_CHECK(static_cast<bool>(is), "read_tensor: data truncated");
    if (h.checked) {
      crc = crc32(t.data(), static_cast<size_t>(h.numel) * sizeof(float), crc);
      const uint32_t stored = read_pod<uint32_t>(is);
      DECO_CHECK(stored == crc, "read_tensor: CRC mismatch (corrupted data)");
    }
    return t;
  }
  // v3: verify the CRC over the *encoded* payload, then dequantize.
  std::vector<uint8_t> payload(static_cast<size_t>(h.payload_bytes));
  is.read(reinterpret_cast<char*>(payload.data()),
          static_cast<std::streamsize>(h.payload_bytes));
  DECO_CHECK(static_cast<bool>(is), "read_tensor: data truncated");
  crc = crc32(payload.data(), payload.size(), crc);
  const uint32_t stored = read_pod<uint32_t>(is);
  DECO_CHECK(stored == crc, "read_tensor: CRC mismatch (corrupted data)");
  Tensor t(h.shape);
  dtype_decode(h.dtype, payload.data(), h.numel, t.data(),
               h.dtype == DType::kQ8 ? h.block : 1);
  return t;
}

QTensor read_qtensor(std::istream& is) {
  uint32_t crc = 0;
  const WireHeader h = read_header(is, "read_qtensor", &crc);
  std::vector<uint8_t> payload(static_cast<size_t>(h.payload_bytes));
  is.read(reinterpret_cast<char*>(payload.data()),
          static_cast<std::streamsize>(h.payload_bytes));
  DECO_CHECK(static_cast<bool>(is), "read_qtensor: data truncated");
  if (h.checked) {
    crc = crc32(payload.data(), payload.size(), crc);
    const uint32_t stored = read_pod<uint32_t>(is);
    DECO_CHECK(stored == crc, "read_qtensor: CRC mismatch (corrupted data)");
  }
  return QTensor::from_bytes(
      h.dtype, h.dtype == DType::kQ8 ? h.block : kDefaultQuantBlock, h.shape,
      std::move(payload));
}

TensorInfo skip_tensor(std::istream& is) {
  const WireHeader h = read_header(is, "skip_tensor", nullptr);
  TensorInfo info;
  info.version = h.version;
  info.dtype = h.dtype;
  info.block = h.block;
  info.shape = h.shape;
  info.numel = h.numel;
  info.payload_bytes = h.payload_bytes;
  const int64_t skip =
      info.payload_bytes +
      (h.checked ? static_cast<int64_t>(sizeof(uint32_t)) : 0);
  // seekg past EOF succeeds on file streams (failure surfaces only at the
  // next read), so measure the remaining bytes explicitly.
  const auto cur = is.tellg();
  is.seekg(0, std::ios::end);
  const auto end = is.tellg();
  DECO_CHECK(static_cast<int64_t>(end - cur) >= skip,
             "skip_tensor: payload truncated");
  is.seekg(cur + static_cast<std::istream::off_type>(skip));
  DECO_CHECK(static_cast<bool>(is), "skip_tensor: seek failed");
  return info;
}

void save_tensor(const std::string& path, const Tensor& t) {
  std::ostringstream os(std::ios::binary);
  write_tensor(os, t);
  atomic_write_file(path, os.str());
}

Tensor load_tensor(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DECO_CHECK(is.is_open(), "load_tensor: cannot open " + path);
  return read_tensor(is);
}

void write_ppm(const std::string& path, const Tensor& image_chw) {
  DECO_CHECK(image_chw.ndim() == 3, "write_ppm: image must be CHW");
  const int64_t c = image_chw.dim(0), h = image_chw.dim(1), w = image_chw.dim(2);
  DECO_CHECK(c == 1 || c == 3, "write_ppm: 1 or 3 channels required");
  std::ofstream os(path, std::ios::binary);
  DECO_CHECK(os.is_open(), "write_ppm: cannot open " + path);
  os << (c == 3 ? "P6" : "P5") << "\n" << w << " " << h << "\n255\n";
  const float* p = image_chw.data();
  for (int64_t y = 0; y < h; ++y) {
    for (int64_t x = 0; x < w; ++x) {
      for (int64_t ch = 0; ch < c; ++ch) {
        const float v = std::clamp(p[(ch * h + y) * w + x], 0.0f, 1.0f);
        const unsigned char byte =
            static_cast<unsigned char>(v * 255.0f + 0.5f);
        os.write(reinterpret_cast<const char*>(&byte), 1);
      }
    }
  }
  DECO_CHECK(static_cast<bool>(os), "write_ppm: stream write failed");
}

}  // namespace deco
