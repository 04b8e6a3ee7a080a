#include "deco/tensor/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "deco/nn/checkpoint.h"
#include "deco/nn/convnet.h"
#include "deco/tensor/check.h"
#include "test_util.h"

namespace deco {
namespace {

TEST(SerializeTest, StreamRoundTrip) {
  Rng rng(1);
  Tensor t = deco::testing::random_tensor({2, 3, 4}, rng);
  std::stringstream ss;
  write_tensor(ss, t);
  Tensor back = read_tensor(ss);
  EXPECT_EQ(back.shape(), t.shape());
  EXPECT_EQ(back.l1_distance(t), 0.0f);
}

TEST(SerializeTest, MultipleTensorsInOneStream) {
  Rng rng(2);
  Tensor a = deco::testing::random_tensor({5}, rng);
  Tensor b = deco::testing::random_tensor({2, 2}, rng);
  std::stringstream ss;
  write_tensor(ss, a);
  write_tensor(ss, b);
  Tensor a2 = read_tensor(ss);
  Tensor b2 = read_tensor(ss);
  EXPECT_EQ(a2.l1_distance(a), 0.0f);
  EXPECT_EQ(b2.l1_distance(b), 0.0f);
}

TEST(SerializeTest, FileRoundTrip) {
  Rng rng(3);
  Tensor t = deco::testing::random_tensor({4, 4}, rng);
  const std::string path = deco::testing::unique_temp_path("tensor.bin");
  save_tensor(path, t);
  Tensor back = load_tensor(path);
  EXPECT_EQ(back.l1_distance(t), 0.0f);
  std::remove(path.c_str());
}

TEST(SerializeTest, RejectsGarbage) {
  std::stringstream ss;
  ss << "this is definitely not a tensor";
  EXPECT_THROW(read_tensor(ss), Error);
}

TEST(SerializeTest, RejectsTruncatedData) {
  Rng rng(4);
  Tensor t = deco::testing::random_tensor({100}, rng);
  std::stringstream ss;
  write_tensor(ss, t);
  std::string bytes = ss.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream trunc(bytes);
  EXPECT_THROW(read_tensor(trunc), Error);
}

TEST(SerializeTest, MissingFileThrows) {
  EXPECT_THROW(load_tensor("/nonexistent/dir/t.bin"), Error);
}

TEST(SerializeTest, ReadsLegacyV1Files) {
  // Hand-craft a v1 container (no CRC trailer): magic | version=1 | ndim |
  // dims | data. Current readers must keep accepting it.
  std::stringstream ss;
  ss.write("DECOTNSR", 8);
  const uint32_t version = 1, ndim = 2;
  ss.write(reinterpret_cast<const char*>(&version), 4);
  ss.write(reinterpret_cast<const char*>(&ndim), 4);
  const int64_t dims[2] = {2, 3};
  ss.write(reinterpret_cast<const char*>(dims), sizeof(dims));
  const float data[6] = {0.f, 1.f, 2.f, 3.f, 4.f, 5.f};
  ss.write(reinterpret_cast<const char*>(data), sizeof(data));

  Tensor t = read_tensor(ss);
  ASSERT_EQ(t.shape(), (std::vector<int64_t>{2, 3}));
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(t.data()[i], static_cast<float>(i));
}

TEST(SerializeTest, RejectsUnsupportedVersion) {
  std::stringstream ss;
  ss.write("DECOTNSR", 8);
  const uint32_t version = 7, ndim = 1;
  ss.write(reinterpret_cast<const char*>(&version), 4);
  ss.write(reinterpret_cast<const char*>(&ndim), 4);
  const int64_t dim = 1;
  ss.write(reinterpret_cast<const char*>(&dim), 8);
  const float v = 0.f;
  ss.write(reinterpret_cast<const char*>(&v), 4);
  EXPECT_THROW(read_tensor(ss), Error);
}

TEST(SerializeTest, DetectsBitFlipViaCrc) {
  Rng rng(8);
  Tensor t = deco::testing::random_tensor({16}, rng);
  std::stringstream ss;
  write_tensor(ss, t);
  std::string bytes = ss.str();
  // Flip one payload bit (past magic+version+ndim+dims).
  bytes[8 + 4 + 4 + 8 + 10] ^= 0x10;
  std::stringstream corrupted(bytes);
  EXPECT_THROW(read_tensor(corrupted), Error);
}

TEST(SerializeTest, RejectsOversizedHeaderBeforeAllocating) {
  // A header claiming 2^20 × 2^20 × 2^20 elements must be rejected by the
  // element cap — and must not overflow the product into something small.
  std::stringstream ss;
  ss.write("DECOTNSR", 8);
  const uint32_t version = 2, ndim = 3;
  ss.write(reinterpret_cast<const char*>(&version), 4);
  ss.write(reinterpret_cast<const char*>(&ndim), 4);
  const int64_t dim = int64_t{1} << 20;
  for (int d = 0; d < 3; ++d)
    ss.write(reinterpret_cast<const char*>(&dim), 8);
  EXPECT_THROW(read_tensor(ss), Error);
}

TEST(SerializeTest, Crc32MatchesKnownVector) {
  // The standard IEEE check value: crc32("123456789") = 0xCBF43926.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  // Chunked computation continues from the running value.
  const uint32_t part = crc32("12345", 5);
  EXPECT_EQ(crc32("6789", 4, part), 0xCBF43926u);
}

TEST(SerializeTest, AtomicSaveLeavesNoTempFile) {
  Rng rng(9);
  Tensor t = deco::testing::random_tensor({4}, rng);
  const std::string path = deco::testing::unique_temp_path("atomic.bin");
  save_tensor(path, t);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.is_open());
  EXPECT_EQ(load_tensor(path).l1_distance(t), 0.0f);
  std::remove(path.c_str());
}

TEST(PpmTest, WritesValidHeaderAndSize) {
  Tensor img({3, 2, 4});
  img.fill(0.5f);
  const std::string path = deco::testing::unique_temp_path("img.ppm");
  write_ppm(path, img);
  std::ifstream is(path, std::ios::binary);
  std::string magic, dims, maxval;
  std::getline(is, magic);
  std::getline(is, dims);
  std::getline(is, maxval);
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(dims, "4 2");
  EXPECT_EQ(maxval, "255");
  // 2*4 pixels × 3 bytes of payload.
  std::string payload((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(payload.size(), 24u);
  EXPECT_EQ(static_cast<unsigned char>(payload[0]), 128);
  std::remove(path.c_str());
}

TEST(PpmTest, GrayscaleUsesP5) {
  Tensor img({1, 2, 2});
  const std::string path = deco::testing::unique_temp_path("img.pgm");
  write_ppm(path, img);
  std::ifstream is(path, std::ios::binary);
  std::string magic;
  std::getline(is, magic);
  EXPECT_EQ(magic, "P5");
  std::remove(path.c_str());
}

TEST(PpmTest, RejectsBadChannelCount) {
  Tensor img({2, 2, 2});
  EXPECT_THROW(write_ppm(deco::testing::unique_temp_path("bad.ppm"), img), Error);
}

TEST(CheckpointTest, ModelRoundTripReproducesOutputs) {
  Rng rng(5);
  nn::ConvNetConfig cfg;
  cfg.in_channels = 2;
  cfg.image_h = cfg.image_w = 8;
  cfg.num_classes = 3;
  cfg.width = 4;
  cfg.depth = 2;
  nn::ConvNet model(cfg, rng);
  Tensor x = deco::testing::random_tensor({2, 2, 8, 8}, rng);
  Tensor y_before = model.forward(x);

  const std::string path = deco::testing::unique_temp_path("model.ckpt");
  nn::save_checkpoint(path, model);

  model.reinitialize(rng);
  EXPECT_GT(model.forward(x).l1_distance(y_before), 1e-4f);

  nn::load_checkpoint(path, model);
  Tensor y_after = model.forward(x);
  EXPECT_LT(y_after.l1_distance(y_before), 1e-6f);
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsMismatchedArchitecture) {
  Rng rng(6);
  nn::ConvNetConfig cfg;
  cfg.in_channels = 2;
  cfg.image_h = cfg.image_w = 8;
  cfg.num_classes = 3;
  cfg.width = 4;
  cfg.depth = 2;
  nn::ConvNet model(cfg, rng);
  const std::string path = deco::testing::unique_temp_path("model2.ckpt");
  nn::save_checkpoint(path, model);

  cfg.width = 8;  // different architecture
  nn::ConvNet other(cfg, rng);
  EXPECT_THROW(nn::load_checkpoint(path, other), Error);
  std::remove(path.c_str());
}

TEST(CheckpointTest, FailedLoadLeavesModelUntouched) {
  Rng rng(10);
  nn::ConvNetConfig cfg;
  cfg.in_channels = 2;
  cfg.image_h = cfg.image_w = 8;
  cfg.num_classes = 3;
  cfg.width = 4;
  cfg.depth = 2;
  nn::ConvNet model(cfg, rng);
  const std::string path = deco::testing::unique_temp_path("model3.ckpt");
  nn::save_checkpoint(path, model);

  cfg.depth = 1;  // different parameter list
  nn::ConvNet other(cfg, rng);
  Tensor x = deco::testing::random_tensor({2, 2, 8, 8}, rng);
  Tensor y_before = other.forward(x);
  EXPECT_THROW(nn::load_checkpoint(path, other), Error);
  // Staged loading: the failed load must not have committed any parameter.
  EXPECT_EQ(other.forward(x).l1_distance(y_before), 0.0f);
  std::remove(path.c_str());
}

TEST(CheckpointTest, DetectsCorruptedCheckpoint) {
  Rng rng(11);
  nn::ConvNetConfig cfg;
  cfg.in_channels = 1;
  cfg.image_h = cfg.image_w = 8;
  cfg.num_classes = 2;
  cfg.width = 4;
  cfg.depth = 1;
  nn::ConvNet model(cfg, rng);
  const std::string path = deco::testing::unique_temp_path("model4.ckpt");
  nn::save_checkpoint(path, model);

  // Flip a byte in the middle of the file: some tensor's CRC must trip.
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    bytes = buf.str();
  }
  bytes[bytes.size() / 2] ^= 0x01;
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(nn::load_checkpoint(path, model), Error);
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsWrongFileKind) {
  Rng rng(7);
  Tensor t = deco::testing::random_tensor({3}, rng);
  const std::string path = deco::testing::unique_temp_path("plain_tensor.bin");
  save_tensor(path, t);
  nn::ConvNetConfig cfg;
  cfg.in_channels = 2;
  cfg.image_h = cfg.image_w = 8;
  cfg.num_classes = 3;
  cfg.width = 4;
  cfg.depth = 1;
  nn::ConvNet model(cfg, rng);
  EXPECT_THROW(nn::load_checkpoint(path, model), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace deco
