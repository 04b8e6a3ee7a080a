// Crash-safe persistence: a DecoLearner killed after segment k and resumed
// from its state file must replay the rest of the stream bit-exactly, and a
// corrupted/truncated/mismatched state file must be rejected without leaving
// the learner half-loaded.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "deco/core/learner.h"
#include "deco/data/stream.h"
#include "deco/data/world.h"
#include "deco/nn/checkpoint.h"
#include "deco/tensor/check.h"
#include "deco/tensor/serialize.h"
#include "test_util.h"

namespace deco::core {
namespace {

nn::ConvNetConfig model_config(const data::DatasetSpec& spec) {
  nn::ConvNetConfig cfg;
  cfg.in_channels = spec.channels;
  cfg.image_h = spec.height;
  cfg.image_w = spec.width;
  cfg.num_classes = spec.num_classes;
  cfg.width = 8;
  cfg.depth = 2;
  return cfg;
}

DecoConfig small_config(bool soft_labels = false) {
  DecoConfig cfg;
  cfg.ipc = 2;
  cfg.beta = 2;
  cfg.model_update_epochs = 2;
  cfg.condenser.iterations = 2;
  cfg.condenser.learn_soft_labels = soft_labels;
  return cfg;
}

data::StreamConfig stream_config(int64_t segments) {
  data::StreamConfig sc;
  sc.stc = 8;
  sc.segment_size = 12;
  sc.total_segments = segments;
  return sc;
}

struct RunEndState {
  Tensor probe_logits;
  Tensor buffer_images;
  int64_t segments_seen = 0;
};

/// Streams `total` segments through a fresh learner. When `kill_at > 0` the
/// learner is destroyed after `kill_at` segments (its state saved to `path`)
/// and a brand-new model+learner resumes from the file.
RunEndState run(const data::ProceduralImageWorld& world,
                const data::Dataset& labeled, bool soft, int64_t total,
                int64_t kill_at, const std::string& path) {
  const Tensor probe = labeled.batch({0, 1, 2});

  auto make_model = [&]() {
    Rng mr(42);
    return nn::ConvNet(model_config(world.spec()), mr);
  };

  nn::ConvNet model = make_model();
  auto learner =
      std::make_unique<DecoLearner>(model, small_config(soft), /*seed=*/7);
  learner->init_buffer_from(labeled);

  data::TemporalStream stream(world, stream_config(total), /*seed=*/9);
  data::Segment seg;
  int64_t seen = 0;
  nn::ConvNet resumed_model = make_model();
  while (stream.next(seg)) {
    if (kill_at > 0 && seen == kill_at) {
      // "Crash": persist, drop the learner and the model, start over from
      // the file with freshly constructed objects.
      learner->save_state(path);
      learner.reset();
      learner = std::make_unique<DecoLearner>(resumed_model,
                                              small_config(soft), /*seed=*/7);
      learner->init_buffer_from(labeled);  // overwritten by load_state
      learner->load_state(path);
      EXPECT_EQ(learner->segments_seen(), kill_at);
    }
    learner->observe_segment(seg.images);
    ++seen;
  }

  RunEndState out;
  out.probe_logits = learner->model().forward(probe);
  out.buffer_images = learner->buffer().images();
  out.segments_seen = learner->segments_seen();
  return out;
}

TEST(CheckpointRecoveryTest, KilledAndResumedRunIsBitExact) {
  data::ProceduralImageWorld world(data::icub1_spec(), 20);
  data::Dataset labeled = world.make_labeled_set(3, 1);
  const std::string path = deco::testing::unique_temp_path("learner.state");

  const RunEndState clean = run(world, labeled, false, 6, 0, path);
  const RunEndState resumed = run(world, labeled, false, 6, 3, path);

  EXPECT_EQ(clean.segments_seen, resumed.segments_seen);
  EXPECT_EQ(clean.buffer_images.l1_distance(resumed.buffer_images), 0.0f);
  EXPECT_EQ(clean.probe_logits.l1_distance(resumed.probe_logits), 0.0f);
  std::remove(path.c_str());
}

TEST(CheckpointRecoveryTest, SoftLabelStateSurvivesResume) {
  data::ProceduralImageWorld world(data::icub1_spec(), 21);
  data::Dataset labeled = world.make_labeled_set(3, 1);
  const std::string path = deco::testing::unique_temp_path("learner_soft.state");

  const RunEndState clean = run(world, labeled, true, 4, 0, path);
  const RunEndState resumed = run(world, labeled, true, 4, 2, path);

  EXPECT_EQ(clean.buffer_images.l1_distance(resumed.buffer_images), 0.0f);
  EXPECT_EQ(clean.probe_logits.l1_distance(resumed.probe_logits), 0.0f);
  std::remove(path.c_str());
}

TEST(CheckpointRecoveryTest, SaveIsAtomic) {
  data::ProceduralImageWorld world(data::icub1_spec(), 22);
  data::Dataset labeled = world.make_labeled_set(2, 1);
  Rng mr(1);
  nn::ConvNet model(model_config(world.spec()), mr);
  DecoLearner learner(model, small_config(), 2);
  learner.init_buffer_from(labeled);

  const std::string path = deco::testing::unique_temp_path("atomic.state");
  learner.save_state(path);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.is_open());  // no temp residue after a successful save
  learner.load_state(path);     // and the file round-trips
  std::remove(path.c_str());
}

class CorruptStateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = std::make_unique<data::ProceduralImageWorld>(data::icub1_spec(), 23);
    labeled_ = std::make_unique<data::Dataset>(world_->make_labeled_set(2, 1));
    Rng mr(3);
    model_ = std::make_unique<nn::ConvNet>(model_config(world_->spec()), mr);
    learner_ = std::make_unique<DecoLearner>(*model_, small_config(), 4);
    learner_->init_buffer_from(*labeled_);
    path_ = deco::testing::unique_temp_path("corrupt.state");
    learner_->save_state(path_);
    probe_ = labeled_->batch({0, 1});
    before_ = learner_->model().forward(probe_);
    buffer_before_ = learner_->buffer().images();
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::string read_file() {
    std::ifstream is(path_, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
  }

  void write_file(const std::string& bytes) {
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// The failed load must leave model and buffer untouched.
  void expect_untouched() {
    EXPECT_EQ(learner_->model().forward(probe_).l1_distance(before_), 0.0f);
    EXPECT_EQ(learner_->buffer().images().l1_distance(buffer_before_), 0.0f);
  }

  std::unique_ptr<data::ProceduralImageWorld> world_;
  std::unique_ptr<data::Dataset> labeled_;
  std::unique_ptr<nn::ConvNet> model_;
  std::unique_ptr<DecoLearner> learner_;
  std::string path_;
  Tensor probe_, before_, buffer_before_;
};

TEST_F(CorruptStateTest, RejectsTruncatedFile) {
  std::string bytes = read_file();
  bytes.resize(bytes.size() / 3);
  write_file(bytes);
  EXPECT_THROW(learner_->load_state(path_), Error);
  expect_untouched();
}

TEST_F(CorruptStateTest, RejectsBadMagic) {
  std::string bytes = read_file();
  bytes[0] = 'X';
  write_file(bytes);
  EXPECT_THROW(learner_->load_state(path_), Error);
  expect_untouched();
}

TEST_F(CorruptStateTest, DetectsBitFlipViaCrc) {
  std::string bytes = read_file();
  bytes[bytes.size() / 2] ^= 0x40;
  write_file(bytes);
  EXPECT_THROW(learner_->load_state(path_), Error);
  expect_untouched();
}

TEST_F(CorruptStateTest, RejectsWrongVersion) {
  // Rewrite the version field (first u32 after the 8-byte magic) and repair
  // the CRC trailer so only the version check can object.
  std::string bytes = read_file();
  const uint32_t bogus = 99;
  std::memcpy(bytes.data() + 8, &bogus, sizeof(bogus));
  const size_t body_len = bytes.size() - 8 - sizeof(uint32_t);
  const uint32_t crc = crc32(bytes.data() + 8, body_len);
  std::memcpy(bytes.data() + bytes.size() - sizeof(uint32_t), &crc,
              sizeof(crc));
  write_file(bytes);
  EXPECT_THROW(learner_->load_state(path_), Error);
  expect_untouched();
}

TEST_F(CorruptStateTest, RejectsMismatchedArchitecture) {
  nn::ConvNetConfig mc = model_config(world_->spec());
  mc.width = 16;  // different parameter shapes
  Rng mr(5);
  nn::ConvNet other(mc, mr);
  DecoLearner wrong(other, small_config(), 6);
  wrong.init_buffer_from(*labeled_);
  const Tensor probe2 = labeled_->batch({0, 1});
  const Tensor before2 = wrong.model().forward(probe2);
  EXPECT_THROW(wrong.load_state(path_), Error);
  EXPECT_EQ(wrong.model().forward(probe2).l1_distance(before2), 0.0f);
}

TEST_F(CorruptStateTest, MissingFileThrows) {
  EXPECT_THROW(learner_->load_state("/nonexistent/dir/x.state"), Error);
  expect_untouched();
}

// ---- byte-corruption fuzz ---------------------------------------------------
//
// Exhaustive single-byte (and single-bit) corruption of the serialized
// containers. The contract under arbitrary corruption is "reject with
// deco::Error or load data that validates against the original" — never a
// crash, never a silently wrong tensor. The one legitimate load-despite-flip
// is the version field turning into the legacy v1 value, which skips CRC
// verification but still decodes the identical bytes (pinned by its own test
// below).

TEST(SerializedTensorFuzzTest, EveryByteFlipRejectsOrLoadsIdentical) {
  Rng rng(17);
  Tensor original({2, 3, 4});
  rng.fill_normal(original, 0, 1);
  std::ostringstream os(std::ios::binary);
  write_tensor(os, original);
  const std::string clean = os.str();

  int64_t rejected = 0, loaded_identical = 0;
  auto attempt = [&](const std::string& bytes, const std::string& what) {
    std::istringstream is(bytes, std::ios::binary);
    try {
      const Tensor t = read_tensor(is);
      // Accepted: must be indistinguishable from the original.
      ASSERT_EQ(t.shape(), original.shape()) << what;
      ASSERT_EQ(std::memcmp(t.data(), original.data(),
                            static_cast<size_t>(t.numel()) * sizeof(float)),
                0)
          << what << ": corrupted stream accepted with different data";
      ++loaded_identical;
    } catch (const Error&) {
      ++rejected;  // the expected outcome for nearly every flip
    }
    // Any other exception type escapes and fails the test: corruption must
    // surface as deco::Error, not std::bad_alloc or a crash.
  };

  for (size_t i = 0; i < clean.size(); ++i) {
    std::string flipped = clean;
    flipped[i] = static_cast<char>(flipped[i] ^ 0xFF);
    attempt(flipped, "byte " + std::to_string(i) + " ^ 0xFF");
    for (int bit = 0; bit < 8; ++bit) {
      std::string one = clean;
      one[i] = static_cast<char>(one[i] ^ (1 << bit));
      attempt(one, "byte " + std::to_string(i) + " bit " + std::to_string(bit));
    }
  }
  // The CRC catches essentially everything; a handful of flips may decode
  // identically (e.g. version downgrades that leave the payload untouched),
  // but most of the stream must reject.
  EXPECT_GT(rejected, static_cast<int64_t>(clean.size()) * 8 / 2);
  SUCCEED() << rejected << " rejected, " << loaded_identical
            << " loaded-identical of " << clean.size() * 9 << " corruptions";
}

TEST(SerializedTensorFuzzTest, LegacyVersionDowngradeStillDecodesExactly) {
  // Setting the version field to 1 is the documented CRC escape hatch: the
  // legacy path skips verification but the payload bytes are unchanged, so
  // the decoded tensor must still be bit-identical.
  Rng rng(18);
  Tensor original({3, 5});
  rng.fill_normal(original, 0, 1);
  std::ostringstream os(std::ios::binary);
  write_tensor(os, original);
  std::string bytes = os.str();
  const uint32_t legacy = 1;
  std::memcpy(bytes.data() + 8, &legacy, sizeof(legacy));  // after 8-B magic

  std::istringstream is(bytes, std::ios::binary);
  const Tensor t = read_tensor(is);
  ASSERT_EQ(t.shape(), original.shape());
  EXPECT_EQ(std::memcmp(t.data(), original.data(),
                        static_cast<size_t>(t.numel()) * sizeof(float)),
            0);
}

TEST_F(CorruptStateTest, StridedByteFlipFuzzNeverCrashesOrCorrupts) {
  // The learner-state container is v2-only (no legacy escape), so every
  // corruption must either throw deco::Error or — if a flip happens to leave
  // the file acceptable — load a state identical to the one just saved,
  // which expect_untouched() verifies through the live model and buffer.
  const std::string clean = read_file();
  ASSERT_FALSE(clean.empty());
  int64_t rejected = 0, accepted = 0;
  // Every byte of the (small) header region, then ~128 positions strided
  // through the bulk (a prime-ish step so all byte lanes of the f32 payload
  // get hit), then the trailer.
  std::vector<size_t> positions;
  for (size_t i = 0; i < std::min<size_t>(64, clean.size()); ++i)
    positions.push_back(i);
  const size_t stride = std::max<size_t>(7, clean.size() / 128 | 1);
  for (size_t i = 64; i < clean.size(); i += stride) positions.push_back(i);
  for (size_t back = 1; back <= 4 && back <= clean.size(); ++back)
    positions.push_back(clean.size() - back);  // the CRC trailer itself

  for (size_t pos : positions) {
    std::string flipped = clean;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0xFF);
    write_file(flipped);
    try {
      learner_->load_state(path_);
      ++accepted;
    } catch (const Error&) {
      ++rejected;
    }
    expect_untouched();
  }
  // A single-byte XOR can never keep the CRC valid, so nothing may load.
  EXPECT_EQ(accepted, 0);
  EXPECT_EQ(rejected, static_cast<int64_t>(positions.size()));
}

// ---- metadata readers (what `deco_cli inspect` prints) ----------------------

std::string read_whole_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

/// Every entry names the model's parameter, in order, with its shape, stored
/// at `dtype` (v2 records for fp32, v3 otherwise).
void expect_params_match(const std::vector<nn::ParamInfo>& infos,
                         nn::Module& model, DType dtype) {
  const std::vector<nn::ParamRef> params = model.parameters();
  ASSERT_EQ(infos.size(), params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(infos[i].name, params[i].name);
    EXPECT_EQ(infos[i].tensor.shape, params[i].value->shape());
    EXPECT_EQ(infos[i].tensor.dtype, dtype);
    EXPECT_EQ(infos[i].tensor.version, dtype == DType::kF32 ? 2u : 3u);
  }
}

/// A learner whose cache and checkpoint dtypes are both `dtype`, after two
/// segments of its stream.
struct MetadataRig {
  explicit MetadataRig(DType dtype, bool soft = false)
      : world(data::icub1_spec(), 24), labeled(world.make_labeled_set(2, 1)) {
    Rng mr(8);
    model = std::make_unique<nn::ConvNet>(model_config(world.spec()), mr);
    DecoConfig cfg = small_config(soft);
    cfg.storage.cache_dtype = dtype;
    learner = std::make_unique<DecoLearner>(*model, cfg, 9);
    learner->set_checkpoint_dtype(dtype);
    learner->init_buffer_from(labeled);
    data::TemporalStream stream(world, stream_config(2), 10);
    data::Segment seg;
    while (stream.next(seg)) learner->observe_segment(seg.images);
  }

  data::ProceduralImageWorld world;
  data::Dataset labeled;
  std::unique_ptr<nn::ConvNet> model;
  std::unique_ptr<DecoLearner> learner;
};

void check_state_metadata(DType dtype, bool soft) {
  MetadataRig rig(dtype, soft);
  DecoLearner& learner = *rig.learner;
  const std::string path = deco::testing::unique_temp_path("meta.state");
  learner.save_state(path);
  const std::string file = read_whole_file(path);
  EXPECT_EQ(learner.state_bytes(), file) << "save_state must write the bytes";

  std::ifstream is(path, std::ios::binary);
  const StateInfo info = read_state_info(is);
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(info.segments_seen, 2);
  expect_params_match(info.params, *rig.model, dtype);
  EXPECT_EQ(info.buffer.shape, learner.buffer().images().shape());
  EXPECT_EQ(info.buffer.dtype, dtype);
  EXPECT_EQ(info.soft_labels, soft);
  if (soft) {
    EXPECT_EQ(info.logits.shape,
              (std::vector<int64_t>{learner.buffer().size(),
                                    learner.buffer().num_classes()}));
  }
  EXPECT_EQ(info.condenser, learner.name());
  // DECO's blob holds at least its rng record (41 bytes) and the two
  // velocity presence flags.
  EXPECT_GE(info.condenser_bytes, 43);
  EXPECT_LT(info.condenser_bytes, static_cast<int64_t>(file.size()));
  std::ifstream again(path, std::ios::binary);
  EXPECT_THROW(nn::read_checkpoint_info(again), Error)
      << "a learner state is not a checkpoint";
  std::remove(path.c_str());
}

void check_checkpoint_metadata(DType dtype) {
  MetadataRig rig(dtype);
  const std::string path = deco::testing::unique_temp_path("meta.ckpt");
  nn::save_checkpoint(path, *rig.model, dtype);
  std::ifstream is(path, std::ios::binary);
  const std::vector<nn::ParamInfo> infos = nn::read_checkpoint_info(is);
  expect_params_match(infos, *rig.model, dtype);
  for (const nn::ParamInfo& p : infos)
    EXPECT_EQ(p.tensor.block, dtype == DType::kQ8 ? kDefaultQuantBlock : 0);
  std::ifstream again(path, std::ios::binary);
  EXPECT_THROW(read_state_info(again), Error)
      << "a checkpoint is not a learner state";
  std::remove(path.c_str());
}

TEST(StateMetadataTest, Fp32StateBytesAndInfoMatchLearner) {
  check_state_metadata(DType::kF32, /*soft=*/false);
}

TEST(StateMetadataTest, Int8StateBytesAndInfoMatchLearner) {
  check_state_metadata(DType::kQ8, /*soft=*/false);
}

TEST(StateMetadataTest, SoftLabelStateInfoListsLogits) {
  check_state_metadata(DType::kF32, /*soft=*/true);
}

TEST(CheckpointMetadataTest, Fp32InfoMatchesModel) {
  check_checkpoint_metadata(DType::kF32);
}

TEST(CheckpointMetadataTest, Int8InfoMatchesModel) {
  check_checkpoint_metadata(DType::kQ8);
}

}  // namespace
}  // namespace deco::core
