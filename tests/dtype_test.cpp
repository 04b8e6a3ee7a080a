// Quantized storage subsystem: dtype codecs, the v3 DECOTNSR container,
// quantized caches/checkpoints and the StoragePolicy config surface.
//
// The codec contract (dtype.h / docs/EXTENDING.md section 10) is pinned
// here: bitwise-deterministic scalar encode/decode, no fabricated NaN/Inf on
// decode, fp32 as the bit-exact identity, and the "resident fp32 view ==
// decode(stored bytes)" invariant that makes lossy caches save/load
// byte-identically on their stored form.
#include "deco/tensor/dtype.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "deco/baselines/replay.h"
#include "deco/condense/buffer.h"
#include "deco/core/learner.h"
#include "deco/core/thread_pool.h"
#include "deco/data/stream.h"
#include "deco/data/world.h"
#include "deco/nn/checkpoint.h"
#include "deco/runtime/config.h"
#include "deco/tensor/check.h"
#include "deco/tensor/serialize.h"
#include "test_util.h"

namespace deco {
namespace {

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.is_open()) << path;
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

bool same_floats(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// ---- names and tags ---------------------------------------------------------

TEST(DTypeTest, NamesRoundTripAndAliasesParse) {
  EXPECT_EQ(dtype_name(DType::kF32), "fp32");
  EXPECT_EQ(dtype_name(DType::kF16), "fp16");
  EXPECT_EQ(dtype_name(DType::kQ8), "int8");
  for (DType d : {DType::kF32, DType::kF16, DType::kQ8})
    EXPECT_EQ(dtype_from_name(dtype_name(d)), d);
  EXPECT_EQ(dtype_from_name("f32"), DType::kF32);
  EXPECT_EQ(dtype_from_name("float16"), DType::kF16);
  EXPECT_EQ(dtype_from_name("q8"), DType::kQ8);
  EXPECT_THROW(dtype_from_name("int7"), Error);
  EXPECT_TRUE(dtype_tag_valid(0));
  EXPECT_TRUE(dtype_tag_valid(2));
  EXPECT_FALSE(dtype_tag_valid(3));
  EXPECT_FALSE(dtype_tag_valid(255));
}

// ---- fp16 scalar conversion -------------------------------------------------

TEST(DTypeTest, F16KnownValues) {
  EXPECT_EQ(f32_to_f16(0.0f), 0x0000u);
  EXPECT_EQ(f32_to_f16(-0.0f), 0x8000u);
  EXPECT_EQ(f32_to_f16(1.0f), 0x3C00u);
  EXPECT_EQ(f32_to_f16(-2.0f), 0xC000u);
  EXPECT_EQ(f32_to_f16(0.5f), 0x3800u);
  EXPECT_EQ(f32_to_f16(65504.0f), 0x7BFFu);  // largest finite f16
  EXPECT_EQ(f32_to_f16(1e9f), 0x7C00u);      // overflow saturates to +Inf
  EXPECT_EQ(f32_to_f16(std::numeric_limits<float>::infinity()), 0x7C00u);
  EXPECT_EQ(f32_to_f16(-std::numeric_limits<float>::infinity()), 0xFC00u);
  EXPECT_FLOAT_EQ(f16_to_f32(0x3C00u), 1.0f);
  EXPECT_FLOAT_EQ(f16_to_f32(0x0001u), 5.9604644775390625e-8f);  // subnormal
  EXPECT_TRUE(std::isnan(
      f16_to_f32(f32_to_f16(std::numeric_limits<float>::quiet_NaN()))));
}

TEST(DTypeTest, F16DenormalF32InputsFlushToSignedZero) {
  const float denorm = 1e-40f;  // f32 subnormal, far below 2^-24
  EXPECT_EQ(f32_to_f16(denorm), 0x0000u);
  EXPECT_EQ(f32_to_f16(-denorm), 0x8000u);
  // Values below half the smallest f16 subnormal round to zero too.
  EXPECT_EQ(f32_to_f16(2e-8f), 0x0000u);
}

TEST(DTypeTest, F16RoundsToNearestEven) {
  // 1.0 + 2^-11 is exactly halfway between 0x3C00 and 0x3C01: ties to the
  // even code 0x3C00. The next halfway point ties up to even 0x3C02.
  EXPECT_EQ(f32_to_f16(1.0f + 0.00048828125f), 0x3C00u);
  EXPECT_EQ(f32_to_f16(1.0f + 3.0f * 0.00048828125f), 0x3C02u);
  // Just past halfway rounds up.
  EXPECT_EQ(f32_to_f16(1.0f + 0.00048828125f * 1.5f), 0x3C01u);
  // 65520 is halfway between 65504 (0x7BFF, odd) and 2^16: the carry rounds
  // up out of the finite range to Inf.
  EXPECT_EQ(f32_to_f16(65520.0f), 0x7C00u);
}

TEST(DTypeTest, F16EveryNonNanHalfRoundTripsExactly) {
  for (uint32_t h = 0; h <= 0xFFFFu; ++h) {
    const uint16_t half = static_cast<uint16_t>(h);
    const float f = f16_to_f32(half);
    if (std::isnan(f)) {
      // NaN payloads are not preserved bit-exactly (the encoder forces a
      // quiet NaN), but the class and sign must survive.
      const uint16_t back = f32_to_f16(f);
      EXPECT_EQ(back & 0x7C00u, 0x7C00u);
      EXPECT_NE(back & 0x3FFu, 0u);
      EXPECT_EQ(back & 0x8000u, half & 0x8000u);
      continue;
    }
    ASSERT_EQ(f32_to_f16(f), half) << "half 0x" << std::hex << h;
  }
}

// ---- int8 block quantization ------------------------------------------------

TEST(DTypeTest, Q8StoredBytesFollowBlockGeometry) {
  // 4 header bytes (f16 scale + f16 zero-point) per started block, one code
  // byte per element: block 32 stores 36 bytes per 128 logical.
  EXPECT_EQ(dtype_stored_bytes(DType::kQ8, 32, 32), 36);
  EXPECT_EQ(dtype_stored_bytes(DType::kQ8, 1, 32), 5);
  EXPECT_EQ(dtype_stored_bytes(DType::kQ8, 31, 32), 35);
  EXPECT_EQ(dtype_stored_bytes(DType::kQ8, 33, 32), 41);
  EXPECT_EQ(dtype_stored_bytes(DType::kQ8, 128, 32), 144);
  EXPECT_EQ(dtype_stored_bytes(DType::kF16, 10, 32), 20);
  EXPECT_EQ(dtype_stored_bytes(DType::kF32, 10, 32), 40);
  // The compression the acceptance gate asks for: >= 3.5x vs fp32.
  EXPECT_GE(static_cast<double>(dtype_stored_bytes(DType::kF32, 1 << 16, 32)) /
                static_cast<double>(
                    dtype_stored_bytes(DType::kQ8, 1 << 16, 32)),
            3.5);
}

TEST(DTypeTest, Q8RoundTripErrorIsBoundedByScale) {
  Rng rng(7);
  Tensor t = deco::testing::random_tensor({4, 32}, rng);  // values in [0, 1)
  for (int64_t i = 0; i < t.numel(); ++i)
    t.data()[i] = t.data()[i] * 2.0f - 1.0f;  // spread to [-1, 1)
  const QTensor q = QTensor::encode(t, DType::kQ8, 32);
  const Tensor back = q.decode();
  // Range <= 2 over a block => step ~ 2/255 ~ 0.008; nearest-code rounding
  // contributes step/2 and the f16 rounding of scale/zero-point at most
  // another ~step, so 2.5 steps bounds the element-wise error.
  for (int64_t i = 0; i < t.numel(); ++i)
    ASSERT_NEAR(back.data()[i], t.data()[i], 0.02f) << "element " << i;
}

TEST(DTypeTest, Q8AllEqualBlockStoresZeroScaleExactly) {
  Tensor t = Tensor::full({32}, 3.25f);  // exactly representable in f16
  const QTensor q = QTensor::encode(t, DType::kQ8, 32);
  const Tensor back = q.decode();
  for (int64_t i = 0; i < t.numel(); ++i)
    EXPECT_EQ(back.data()[i], 3.25f) << "zero-scale block must decode exact";
}

TEST(DTypeTest, Q8PartialAndSingleElementBlocks) {
  Rng rng(8);
  for (int64_t n : {1, 31, 33}) {
    Tensor t = deco::testing::random_tensor({n}, rng);
    const QTensor q = QTensor::encode(t, DType::kQ8, 32);
    EXPECT_EQ(q.stored_bytes(), dtype_stored_bytes(DType::kQ8, n, 32));
    const Tensor back = q.decode();
    ASSERT_EQ(back.numel(), n);
    for (int64_t i = 0; i < n; ++i)
      ASSERT_NEAR(back.data()[i], t.data()[i], 0.01f) << "n=" << n;
  }
}

TEST(DTypeTest, Q8SaturatesNanAndInfDeterministically) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor t({6}, {nan, inf, -inf, 0.5f, -0.5f, 0.25f});
  const QTensor q = QTensor::encode(t, DType::kQ8, 32);
  const Tensor back = q.decode();
  // Decode never fabricates a non-finite value...
  for (int64_t i = 0; i < back.numel(); ++i)
    ASSERT_TRUE(std::isfinite(back.data()[i])) << "element " << i;
  // ...and the saturation is fixed: NaN and -Inf land on the block minimum
  // (the zero-point), +Inf on the block maximum.
  EXPECT_FLOAT_EQ(back.data()[0], back.data()[4]);  // NaN -> min (-0.5)
  EXPECT_FLOAT_EQ(back.data()[2], back.data()[4]);  // -Inf -> min
  EXPECT_GE(back.data()[1], back.data()[3]);        // +Inf -> max (~0.5)
  EXPECT_NEAR(back.data()[1], 0.5f, 0.01f);
}

TEST(DTypeTest, Q8DenormalBlockDecodesToFiniteZero) {
  Tensor t = Tensor::full({32}, 1e-40f);  // every input an f32 denormal
  const QTensor q = QTensor::encode(t, DType::kQ8, 32);
  const Tensor back = q.decode();
  for (int64_t i = 0; i < back.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(back.data()[i]));
    ASSERT_EQ(back.data()[i], 0.0f) << "sub-f16 range flushes to zero";
  }
}

TEST(DTypeTest, EncodeIsBitwiseDeterministic) {
  Rng rng(9);
  Tensor t = deco::testing::random_tensor({3, 50}, rng);
  for (DType d : {DType::kF32, DType::kF16, DType::kQ8}) {
    const QTensor a = QTensor::encode(t, d, 32);
    const QTensor b = QTensor::encode(t, d, 32);
    ASSERT_EQ(a.stored_bytes(), b.stored_bytes());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          static_cast<size_t>(a.stored_bytes())),
              0)
        << dtype_name(d);
  }
}

// ---- QTensor ----------------------------------------------------------------

TEST(QTensorTest, Fp32IsTheIdentityCodec) {
  Rng rng(10);
  Tensor t = deco::testing::random_tensor({2, 5}, rng);
  const QTensor q = QTensor::encode(t, DType::kF32);
  EXPECT_EQ(q.stored_bytes(), q.logical_bytes());
  EXPECT_EQ(std::memcmp(q.data(), t.data(),
                        static_cast<size_t>(q.stored_bytes())),
            0);
  EXPECT_TRUE(same_floats(q.decode(), t));
}

TEST(QTensorTest, FromBytesRoundTripsAndValidatesGeometry) {
  Rng rng(11);
  Tensor t = deco::testing::random_tensor({3, 40}, rng);
  const QTensor q = QTensor::encode(t, DType::kQ8, 32);
  std::vector<uint8_t> bytes(q.data(), q.data() + q.stored_bytes());
  const QTensor r = QTensor::from_bytes(DType::kQ8, 32, {3, 40}, bytes);
  EXPECT_EQ(r.numel(), q.numel());
  EXPECT_TRUE(same_floats(r.decode(), q.decode()));
  bytes.pop_back();
  EXPECT_THROW(QTensor::from_bytes(DType::kQ8, 32, {3, 40}, bytes), Error);
}

TEST(QTensorTest, ReencodeRefreshesStoredBytesInPlace) {
  Rng rng(12);
  Tensor t = deco::testing::random_tensor({64}, rng);
  QTensor q = QTensor::encode(t, DType::kQ8, 32);
  Tensor other = deco::testing::random_tensor({64}, rng);
  q.reencode(other);
  EXPECT_TRUE(same_floats(q.decode(), QTensor::encode(other, DType::kQ8, 32)
                                          .decode()));
  Tensor wrong({32});
  EXPECT_THROW(q.reencode(wrong), Error);
}

TEST(QTensorTest, StoragePolicyValidatesBlockRange) {
  StoragePolicy p;
  EXPECT_NO_THROW(p.validate());
  p.block = 4;
  EXPECT_NO_THROW(p.validate());
  p.block = 1024;
  EXPECT_NO_THROW(p.validate());
  p.block = 3;
  EXPECT_THROW(p.validate(), Error);
  p.block = 2048;
  EXPECT_THROW(p.validate(), Error);
}

// ---- v3 container -----------------------------------------------------------

TEST(DTypeSerializeTest, V3Fp32RoundTripsBitExactly) {
  Rng rng(20);
  Tensor t = deco::testing::random_tensor({4, 7}, rng);
  std::stringstream ss;
  write_tensor(ss, t, DType::kF32);
  const Tensor back = read_tensor(ss);
  EXPECT_EQ(back.shape(), t.shape());
  EXPECT_TRUE(same_floats(back, t)) << "v3-fp32 must be bit-exact";
}

TEST(DTypeSerializeTest, TwoArgWriteStillEmitsV2) {
  Rng rng(21);
  Tensor t = deco::testing::random_tensor({5}, rng);
  std::stringstream ss;
  write_tensor(ss, t);
  const TensorInfo info = skip_tensor(ss);
  EXPECT_EQ(info.version, 2u) << "legacy callers must keep v2 bytes";
  EXPECT_EQ(info.dtype, DType::kF32);
  EXPECT_EQ(info.block, 0);
}

TEST(DTypeSerializeTest, V2FilesReadAsFp32QTensors) {
  Rng rng(22);
  Tensor t = deco::testing::random_tensor({6, 3}, rng);
  std::stringstream ss;
  write_tensor(ss, t);  // v2
  const QTensor q = read_qtensor(ss);
  EXPECT_EQ(q.dtype(), DType::kF32);
  EXPECT_TRUE(same_floats(q.decode(), t));
}

TEST(DTypeSerializeTest, V3QuantizedRoundTripMatchesCodec) {
  Rng rng(23);
  Tensor t = deco::testing::random_tensor({10, 16}, rng);
  for (DType d : {DType::kF16, DType::kQ8}) {
    std::stringstream ss;
    write_tensor(ss, t, d, 8);
    const Tensor back = read_tensor(ss);
    const Tensor expect = QTensor::encode(t, d, 8).decode();
    EXPECT_TRUE(same_floats(back, expect)) << dtype_name(d);
  }
}

TEST(DTypeSerializeTest, WriteQTensorPersistsStoredBytesVerbatim) {
  Rng rng(24);
  Tensor t = deco::testing::random_tensor({9, 9}, rng);
  const QTensor q = QTensor::encode(t, DType::kQ8, 32);

  std::stringstream ss;
  write_qtensor(ss, q);
  const std::string first = ss.str();
  const QTensor r = read_qtensor(ss);
  EXPECT_EQ(r.dtype(), DType::kQ8);
  EXPECT_EQ(r.block(), 32);
  EXPECT_EQ(r.shape(), q.shape());
  ASSERT_EQ(r.stored_bytes(), q.stored_bytes());
  EXPECT_EQ(std::memcmp(r.data(), q.data(),
                        static_cast<size_t>(q.stored_bytes())),
            0);

  // Save -> load -> save is byte-identical: quantization is not idempotent,
  // so this only holds because the stored form is persisted verbatim.
  std::stringstream ss2;
  write_qtensor(ss2, r);
  EXPECT_EQ(ss2.str(), first);
}

TEST(DTypeSerializeTest, SkipTensorReportsV3MetadataAndAdvances) {
  Rng rng(25);
  Tensor a = deco::testing::random_tensor({4, 33}, rng);
  Tensor b = deco::testing::random_tensor({2}, rng);
  std::stringstream ss;
  write_tensor(ss, a, DType::kQ8, 32);
  write_tensor(ss, b);
  const TensorInfo info = skip_tensor(ss);
  EXPECT_EQ(info.version, 3u);
  EXPECT_EQ(info.dtype, DType::kQ8);
  EXPECT_EQ(info.block, 32);
  EXPECT_EQ(info.numel, 132);
  EXPECT_EQ(info.payload_bytes, dtype_stored_bytes(DType::kQ8, 132, 32));
  // The stream is positioned exactly after the first record.
  const Tensor back = read_tensor(ss);
  EXPECT_TRUE(same_floats(back, b));
}

TEST(DTypeSerializeTest, RejectsBadDtypeTagReservedByteAndBlock) {
  Rng rng(26);
  Tensor t = deco::testing::random_tensor({8}, rng);
  std::stringstream ss;
  write_tensor(ss, t, DType::kQ8, 8);
  const std::string good = ss.str();
  // Layout: magic[8] | u32 version | u8 dtype | u8 reserved | u16 block ...
  {
    std::string bad = good;
    bad[12] = 9;  // unknown dtype tag
    std::stringstream in(bad);
    EXPECT_THROW(read_tensor(in), Error);
  }
  {
    std::string bad = good;
    bad[13] = 1;  // reserved byte must be zero
    std::stringstream in(bad);
    EXPECT_THROW(read_tensor(in), Error);
  }
  {
    std::string bad = good;
    bad[14] = 0;  // kQ8 with block 0
    bad[15] = 0;
    std::stringstream in(bad);
    EXPECT_THROW(read_tensor(in), Error);
  }
  {
    std::string bad = good.substr(0, good.size() - 6);  // truncated payload
    std::stringstream in(bad);
    EXPECT_THROW(read_tensor(in), Error);
  }
}

TEST(DTypeSerializeTest, BitFlipFuzzOverV3RejectsOrLoadsIdentical) {
  Rng rng(27);
  Tensor t = deco::testing::random_tensor({3, 32}, rng);
  const QTensor q = QTensor::encode(t, DType::kQ8, 32);
  std::stringstream ss;
  write_qtensor(ss, q);
  const std::string good = ss.str();

  int rejected = 0, identical = 0;
  for (size_t pos = 0; pos < good.size(); ++pos) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ (1 << (pos % 8)));
    std::stringstream in(bad);
    try {
      const QTensor r = read_qtensor(in);
      const bool same =
          r.dtype() == q.dtype() && r.block() == q.block() &&
          r.shape() == q.shape() && r.stored_bytes() == q.stored_bytes() &&
          std::memcmp(r.data(), q.data(),
                      static_cast<size_t>(q.stored_bytes())) == 0;
      ASSERT_TRUE(same) << "flip at byte " << pos
                        << " loaded a silently different tensor";
      ++identical;
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  // Every byte of a v3 record is covered by the magic check, the header
  // validation or the CRC, so no flip may load a different tensor.
  EXPECT_EQ(rejected + identical, static_cast<int>(good.size()));
}

// ---- SyntheticBuffer quantized storage --------------------------------------

TEST(BufferStorageTest, CommitMaintainsMirrorInvariant) {
  condense::SyntheticBuffer buf(2, 2, 3, 8, 8);
  Rng rng(30);
  buf.init_random(rng);
  buf.set_storage(DType::kQ8, 32);
  buf.commit_storage();
  EXPECT_LT(buf.stored_bytes(), buf.logical_bytes());
  EXPECT_GE(static_cast<double>(buf.logical_bytes()) /
                static_cast<double>(buf.stored_bytes()),
            3.5);
  // The storage invariant: the fp32 working copy IS the decode of the
  // canonical stored bytes after every commit.
  EXPECT_TRUE(same_floats(buf.images(), buf.stored_images().decode()));
  // Re-committing the already-decoded values must be a fixed point on the
  // working copy's role as "what training actually sees".
  const QTensor before = buf.stored_images();
  buf.commit_storage();
  EXPECT_TRUE(same_floats(buf.images(), buf.stored_images().decode()));
  (void)before;
}

TEST(BufferStorageTest, Fp32PolicyLeavesImagesUntouched) {
  condense::SyntheticBuffer buf(2, 2, 3, 8, 8);
  Rng rng(31);
  buf.init_random(rng);
  const Tensor snapshot = buf.images();
  buf.commit_storage();  // default fp32: a no-op
  EXPECT_TRUE(same_floats(buf.images(), snapshot));
  EXPECT_EQ(buf.stored_bytes(), buf.logical_bytes());
}

TEST(BufferStorageTest, RestoreStoredRebuildsWorkingCopy) {
  condense::SyntheticBuffer buf(2, 2, 3, 8, 8);
  Rng rng(32);
  buf.init_random(rng);
  buf.set_storage(DType::kQ8, 32);
  buf.commit_storage();
  QTensor saved = buf.stored_images();
  const Tensor expect = buf.images();

  buf.init_random(rng);  // diverge the working copy
  buf.restore_stored(std::move(saved));
  EXPECT_TRUE(same_floats(buf.images(), expect));

  // Mismatched geometry or dtype must be rejected.
  condense::SyntheticBuffer other(2, 2, 3, 8, 8);
  other.init_random(rng);
  other.set_storage(DType::kQ8, 32);
  other.commit_storage();
  QTensor wrong_dtype = QTensor::encode(other.images(), DType::kF16);
  EXPECT_THROW(other.restore_stored(std::move(wrong_dtype)), Error);
}

// ---- ConfigMap / StoragePolicy surface --------------------------------------

TEST(StorageConfigTest, DtypeKeysRouteIntoPolicies) {
  runtime::ConfigMap cm = runtime::ConfigMap::from_kv_text(
      "deco.cache_dtype = int8\n"
      "deco.checkpoint_dtype = fp16\n"
      "deco.quant_block = 64\n"
      "runtime.checkpoint_dtype = fp16\n");
  core::DecoConfig dc;
  runtime::RuntimeConfig rc;
  cm.apply(dc);
  cm.apply(rc);
  cm.check_fully_consumed();
  EXPECT_EQ(dc.storage.cache_dtype, DType::kQ8);
  EXPECT_EQ(dc.storage.checkpoint_dtype, DType::kF16);
  EXPECT_EQ(dc.storage.block, 64);
  EXPECT_EQ(rc.checkpoint_dtype, DType::kF16);
}

TEST(StorageConfigTest, TyposAndBadValuesFailNamingTheKey) {
  {
    // The classic one-letter typo must not silently run the default.
    runtime::ConfigMap cm =
        runtime::ConfigMap::from_kv_text("deco.cache_dtyp = int8\n");
    core::DecoConfig dc;
    try {
      cm.apply(dc);
      FAIL() << "expected deco::Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("deco.cache_dtyp"),
                std::string::npos);
    }
  }
  {
    // A key under no applied prefix is caught by check_fully_consumed.
    runtime::ConfigMap cm =
        runtime::ConfigMap::from_kv_text("decoo.cache_dtype = int8\n");
    core::DecoConfig dc;
    cm.apply(dc);
    EXPECT_THROW(cm.check_fully_consumed(), Error);
  }
  {
    runtime::ConfigMap cm =
        runtime::ConfigMap::from_kv_text("deco.cache_dtype = int7\n");
    core::DecoConfig dc;
    try {
      cm.apply(dc);
      FAIL() << "expected deco::Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("deco.cache_dtype"),
                std::string::npos);
      EXPECT_NE(std::string(e.what()).find("int7"), std::string::npos);
    }
  }
  {
    runtime::ConfigMap cm =
        runtime::ConfigMap::from_kv_text("runtime.checkpoint_dtype = maybe\n");
    runtime::RuntimeConfig rc;
    EXPECT_THROW(cm.apply(rc), Error);
  }
}

TEST(StorageConfigTest, GetDtypeParsesAndFallsBack) {
  runtime::ConfigMap cm =
      runtime::ConfigMap::from_kv_text("some.dtype = fp16\n");
  EXPECT_EQ(cm.get_dtype("some.dtype", DType::kF32), DType::kF16);
  EXPECT_EQ(cm.get_dtype("absent", DType::kQ8), DType::kQ8);
  cm.check_fully_consumed();
}

TEST(StorageConfigTest, OutOfRangeBlockFailsAtValidate) {
  runtime::ConfigMap cm =
      runtime::ConfigMap::from_kv_text("deco.quant_block = 2\n");
  core::DecoConfig dc;
  cm.apply(dc);
  EXPECT_THROW(dc.validate(), Error) << "StoragePolicy::validate is the one "
                                        "range authority";
}

// ---- checkpoints ------------------------------------------------------------

nn::ConvNetConfig tiny_net() {
  nn::ConvNetConfig mc;
  mc.in_channels = 1;
  mc.image_h = 8;
  mc.image_w = 8;
  mc.num_classes = 2;
  mc.width = 4;
  mc.depth = 1;
  return mc;
}

TEST(CheckpointDtypeTest, Fp32OverloadIsByteIdenticalToLegacy) {
  Rng rng(40);
  nn::ConvNet model(tiny_net(), rng);
  const std::string a = deco::testing::unique_temp_path("ckpt_legacy.ckpt");
  const std::string b = deco::testing::unique_temp_path("ckpt_fp32.ckpt");
  nn::save_checkpoint(a, model);
  nn::save_checkpoint(b, model, DType::kF32);
  EXPECT_EQ(file_bytes(a), file_bytes(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(CheckpointDtypeTest, QuantizedCheckpointShrinksAndLoads) {
  Rng rng(41);
  nn::ConvNet model(tiny_net(), rng);
  Tensor probe = deco::testing::random_tensor({2, 1, 8, 8}, rng);
  const Tensor before = model.forward(probe);

  const std::string f32 = deco::testing::unique_temp_path("ckpt_f32.ckpt");
  const std::string f16 = deco::testing::unique_temp_path("ckpt_f16.ckpt");
  nn::save_checkpoint(f32, model);
  nn::save_checkpoint(f16, model, DType::kF16);
  EXPECT_LT(file_bytes(f16).size(), file_bytes(f32).size());

  // Loading the fp16 checkpoint is lossy but close: outputs stay near the
  // fp32 model's.
  Rng rng2(99);
  nn::ConvNet other(tiny_net(), rng2);
  nn::load_checkpoint(f16, other);
  const Tensor after = other.forward(probe);
  ASSERT_EQ(after.numel(), before.numel());
  for (int64_t i = 0; i < after.numel(); ++i)
    EXPECT_NEAR(after.data()[i], before.data()[i], 0.05f);
  std::remove(f32.c_str());
  std::remove(f16.c_str());
}

// ---- DecoLearner end to end -------------------------------------------------

core::DecoConfig quant_config(DType cache_dtype) {
  core::DecoConfig cfg;
  cfg.ipc = 2;
  cfg.beta = 2;
  cfg.model_update_epochs = 2;
  cfg.condenser.iterations = 2;
  cfg.storage.cache_dtype = cache_dtype;
  return cfg;
}

nn::ConvNetConfig world_net(const data::DatasetSpec& spec) {
  nn::ConvNetConfig cfg;
  cfg.in_channels = spec.channels;
  cfg.image_h = spec.height;
  cfg.image_w = spec.width;
  cfg.num_classes = spec.num_classes;
  cfg.width = 8;
  cfg.depth = 2;
  return cfg;
}

TEST(QuantizedLearnerTest, Int8CacheShrinksMemoryBytes) {
  data::ProceduralImageWorld world(data::icub1_spec(), 50);
  data::Dataset labeled = world.make_labeled_set(2, 1);
  Rng mr(1);
  nn::ConvNet model_a(world_net(world.spec()), mr);
  Rng mr2(1);
  nn::ConvNet model_b(world_net(world.spec()), mr2);

  core::DecoLearner f32(model_a, quant_config(DType::kF32), 3);
  core::DecoLearner q8(model_b, quant_config(DType::kQ8), 3);
  f32.init_buffer_from(labeled);
  q8.init_buffer_from(labeled);

  EXPECT_EQ(f32.cache_stored_bytes(), f32.cache_logical_bytes());
  EXPECT_EQ(q8.cache_logical_bytes(), f32.cache_logical_bytes());
  EXPECT_GE(static_cast<double>(q8.cache_logical_bytes()) /
                static_cast<double>(q8.cache_stored_bytes()),
            3.5)
      << "int8 cache must hit the compression target";
  EXPECT_LT(q8.memory_bytes(), f32.memory_bytes())
      << "memory_bytes must report the cache as stored";
}

TEST(QuantizedLearnerTest, SaveLoadSaveIsByteIdentical) {
  data::ProceduralImageWorld world(data::icub1_spec(), 51);
  data::Dataset labeled = world.make_labeled_set(2, 1);
  Rng mr(2);
  nn::ConvNet model(world_net(world.spec()), mr);
  core::DecoLearner learner(model, quant_config(DType::kQ8), 5);
  learner.init_buffer_from(labeled);

  data::StreamConfig sc;
  sc.stc = 8;
  sc.segment_size = 12;
  sc.total_segments = 3;
  data::TemporalStream stream(world, sc, 9);
  data::Segment seg;
  while (stream.next(seg)) learner.observe_segment(seg.images);

  const std::string a = deco::testing::unique_temp_path("quant_a.state");
  const std::string b = deco::testing::unique_temp_path("quant_b.state");
  learner.save_state(a);

  Rng mr2(3);
  nn::ConvNet model2(world_net(world.spec()), mr2);
  core::DecoLearner resumed(model2, quant_config(DType::kQ8), 5);
  resumed.init_buffer_from(labeled);
  resumed.load_state(a);
  resumed.save_state(b);
  // Quantization is NOT idempotent, so this byte identity only holds
  // because save/load persist the canonical stored bytes verbatim.
  EXPECT_EQ(file_bytes(a), file_bytes(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(QuantizedLearnerTest, KilledAndResumedInt8RunIsBitExact) {
  data::ProceduralImageWorld world(data::icub1_spec(), 52);
  data::Dataset labeled = world.make_labeled_set(3, 1);
  const Tensor probe = labeled.batch({0, 1, 2});
  const std::string path = deco::testing::unique_temp_path("quant_resume.state");

  auto run = [&](int64_t kill_at) {
    auto make_model = [&] {
      Rng mr(42);
      return nn::ConvNet(world_net(world.spec()), mr);
    };
    nn::ConvNet model = make_model();
    auto learner = std::make_unique<core::DecoLearner>(
        model, quant_config(DType::kQ8), 7);
    learner->init_buffer_from(labeled);
    data::StreamConfig sc;
    sc.stc = 8;
    sc.segment_size = 12;
    sc.total_segments = 5;
    data::TemporalStream stream(world, sc, 9);
    data::Segment seg;
    int64_t seen = 0;
    nn::ConvNet resumed_model = make_model();
    while (stream.next(seg)) {
      if (kill_at > 0 && seen == kill_at) {
        learner->save_state(path);
        learner.reset();
        learner = std::make_unique<core::DecoLearner>(
            resumed_model, quant_config(DType::kQ8), 7);
        learner->init_buffer_from(labeled);
        learner->load_state(path);
      }
      learner->observe_segment(seg.images);
      ++seen;
    }
    std::pair<Tensor, Tensor> out{learner->model().forward(probe),
                                  learner->buffer().images()};
    return out;
  };

  const auto clean = run(0);
  const auto resumed = run(2);
  EXPECT_TRUE(same_floats(clean.second, resumed.second))
      << "resumed int8 buffer diverged: the mirror invariant is broken";
  EXPECT_TRUE(same_floats(clean.first, resumed.first))
      << "resumed int8 model diverged";
  std::remove(path.c_str());
}

TEST(QuantizedLearnerTest, LoadRejectsMismatchedCachePolicy) {
  data::ProceduralImageWorld world(data::icub1_spec(), 53);
  data::Dataset labeled = world.make_labeled_set(2, 1);
  Rng mr(4);
  nn::ConvNet model(world_net(world.spec()), mr);
  core::DecoLearner q8(model, quant_config(DType::kQ8), 5);
  q8.init_buffer_from(labeled);
  const std::string path = deco::testing::unique_temp_path("quant_policy.state");
  q8.save_state(path);

  Rng mr2(5);
  nn::ConvNet model2(world_net(world.spec()), mr2);
  core::DecoLearner f32(model2, quant_config(DType::kF32), 5);
  f32.init_buffer_from(labeled);
  try {
    f32.load_state(path);
    FAIL() << "expected deco::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cache_dtype"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(QuantizedLearnerTest, Int8PathIsThreadCountInvariant) {
  data::ProceduralImageWorld world(data::icub1_spec(), 54);
  data::Dataset labeled = world.make_labeled_set(2, 1);
  const Tensor probe = labeled.batch({0, 1});

  auto run = [&] {
    Rng mr(6);
    nn::ConvNet model(world_net(world.spec()), mr);
    core::DecoLearner learner(model, quant_config(DType::kQ8), 11);
    learner.init_buffer_from(labeled);
    data::StreamConfig sc;
    sc.stc = 8;
    sc.segment_size = 12;
    sc.total_segments = 3;
    data::TemporalStream stream(world, sc, 9);
    data::Segment seg;
    while (stream.next(seg)) learner.observe_segment(seg.images);
    std::pair<Tensor, Tensor> out{learner.model().forward(probe),
                                  learner.buffer().images()};
    return out;
  };

  const int saved = core::num_threads();
  core::set_num_threads(1);
  const auto t1 = run();
  core::set_num_threads(2);
  const auto t2 = run();
  core::set_num_threads(4);
  const auto t4 = run();
  core::set_num_threads(saved);

  EXPECT_TRUE(same_floats(t1.second, t2.second));
  EXPECT_TRUE(same_floats(t1.second, t4.second));
  EXPECT_TRUE(same_floats(t1.first, t2.first));
  EXPECT_TRUE(same_floats(t1.first, t4.first));
}

// ---- quantized replay rows --------------------------------------------------

TEST(QuantizedReplayTest, RowsQuantizeAtTheDoor) {
  data::ProceduralImageWorld world(data::icub1_spec(), 55);
  data::Dataset labeled = world.make_labeled_set(2, 1);
  Rng mr(7);
  nn::ConvNet model(world_net(world.spec()), mr);

  baselines::BaselineConfig bc;
  bc.ipc = 2;
  bc.beta = 2;
  bc.model_update_epochs = 1;
  bc.storage.cache_dtype = DType::kQ8;
  baselines::BaselineLearner learner(model, baselines::Strategy::kFifo, bc,
                                     13);
  learner.init_buffer_from(labeled);
  EXPECT_GT(learner.cache_stored_bytes(), 0);
  EXPECT_GE(static_cast<double>(learner.cache_logical_bytes()) /
                static_cast<double>(learner.cache_stored_bytes()),
            3.5);

  // The learner still trains from (decoded) rows without surprises.
  data::StreamConfig sc;
  sc.stc = 8;
  sc.segment_size = 12;
  sc.total_segments = 2;
  data::TemporalStream stream(world, sc, 9);
  data::Segment seg;
  while (stream.next(seg)) {
    const core::SegmentReport rep = learner.observe_segment(seg.images);
    EXPECT_EQ(rep.segment_skipped, 0);
  }
  Rng mr2(8);
  nn::ConvNet model2(world_net(world.spec()), mr2);
  baselines::BaselineConfig bf = bc;
  bf.storage.cache_dtype = DType::kF32;
  baselines::BaselineLearner f32(model2, baselines::Strategy::kFifo, bf, 13);
  f32.init_buffer_from(labeled);
  EXPECT_LT(learner.cache_stored_bytes(), f32.cache_stored_bytes() + 1);
  EXPECT_EQ(f32.cache_stored_bytes(), f32.cache_logical_bytes());
}

}  // namespace
}  // namespace deco
