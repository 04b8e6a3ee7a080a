// Unit tests for the multi-session runtime: bounded ingest queues (strict
// depth bound, shed/block overflow, close semantics), the unified config
// loader (parsing, typed conversion, key-naming errors, consumption
// tracking), the promoted OnDeviceLearner API defaults, and SessionManager
// scheduling/quarantine/admission/checkpoint behavior on stub learners.
// The full-fleet byte-identity sweeps live in runtime_stress_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "deco/core/learner.h"
#include "deco/core/thread_pool.h"
#include "deco/data/world.h"
#include "deco/runtime/config.h"
#include "deco/runtime/fleet.h"
#include "deco/runtime/queue.h"
#include "deco/runtime/session_manager.h"
#include "deco/tensor/check.h"
#include "test_util.h"

namespace deco {
namespace {

Tensor tagged(float v) {
  Tensor t({1});
  t[0] = v;
  return t;
}

// ---- SegmentQueue -----------------------------------------------------------

TEST(SegmentQueue, ShedOldestKeepsDepthBoundAndDropsOldest) {
  runtime::SegmentQueue q(3, runtime::OverflowPolicy::kShedOldest);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(q.push(tagged(static_cast<float>(i))));
    EXPECT_LE(q.size(), 3);
  }
  const runtime::QueueStats st = q.stats();
  EXPECT_EQ(st.pushed, 5);
  EXPECT_EQ(st.shed, 2);
  EXPECT_EQ(st.max_depth, 3);
  // Oldest two (0, 1) were shed; the survivors pop in FIFO order.
  Tensor t;
  for (float expect : {2.0f, 3.0f, 4.0f}) {
    ASSERT_TRUE(q.try_pop(t));
    EXPECT_EQ(t[0], expect);
  }
  EXPECT_FALSE(q.try_pop(t));
}

TEST(SegmentQueue, DiurnalBurstShedsOldestWithExactAccounting) {
  // Depth-2 queue under a diurnal arrival pattern: each cycle has a quiet
  // phase (one segment, consumed immediately) and a rush hour (a burst of 4
  // pushed back-to-back with no consumer running). kShedOldest must keep
  // exactly the NEWEST two of every burst, drop the oldest, and account for
  // every segment: pushed == popped + shed + still-queued, always.
  runtime::SegmentQueue q(2, runtime::OverflowPolicy::kShedOldest);
  float tag = 0.0f;
  Tensor t;
  for (int cycle = 0; cycle < 3; ++cycle) {
    // Quiet phase: steady arrival never sheds.
    EXPECT_TRUE(q.push(tagged(tag)));
    ASSERT_TRUE(q.try_pop(t));
    EXPECT_EQ(t[0], tag);
    tag += 1.0f;

    // Rush hour: burst of 4 into depth 2.
    std::vector<float> burst;
    for (int k = 0; k < 4; ++k) {
      burst.push_back(tag);
      EXPECT_TRUE(q.push(tagged(tag)));
      EXPECT_LE(q.size(), 2);
      tag += 1.0f;
    }
    // The two oldest burst segments were shed; the survivors are the two
    // newest, and they pop in arrival order.
    ASSERT_TRUE(q.try_pop(t));
    EXPECT_EQ(t[0], burst[2]);
    ASSERT_TRUE(q.try_pop(t));
    EXPECT_EQ(t[0], burst[3]);
    EXPECT_FALSE(q.try_pop(t));

    const runtime::QueueStats st = q.stats();
    EXPECT_EQ(st.pushed, 5 * (cycle + 1));
    EXPECT_EQ(st.popped, 3 * (cycle + 1));
    EXPECT_EQ(st.shed, 2 * (cycle + 1));
    EXPECT_EQ(st.pushed, st.popped + st.shed + q.size());
  }
  EXPECT_EQ(q.stats().max_depth, 2);
}

TEST(SegmentQueue, BlockPolicyBlocksProducerUntilPop) {
  runtime::SegmentQueue q(1, runtime::OverflowPolicy::kBlock);
  ASSERT_TRUE(q.push(tagged(0.0f)));

  std::atomic<bool> second_done{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(tagged(1.0f)));  // full: must wait for the pop below
    second_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_done.load());
  EXPECT_EQ(q.size(), 1);

  Tensor t;
  ASSERT_TRUE(q.try_pop(t));
  EXPECT_EQ(t[0], 0.0f);
  producer.join();
  EXPECT_TRUE(second_done.load());
  EXPECT_EQ(q.size(), 1);
  const runtime::QueueStats st = q.stats();
  EXPECT_EQ(st.block_waits, 1);
  EXPECT_EQ(st.shed, 0);
  EXPECT_EQ(st.max_depth, 1);
}

TEST(SegmentQueue, CloseRejectsPushesWakesProducersKeepsQueuedItems) {
  runtime::SegmentQueue q(1, runtime::OverflowPolicy::kBlock);
  ASSERT_TRUE(q.push(tagged(7.0f)));

  std::thread producer([&] {
    EXPECT_FALSE(q.push(tagged(8.0f)));  // blocked, then woken by close()
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producer.join();

  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.push(tagged(9.0f)));
  // The accepted segment is still drainable after close.
  Tensor t;
  ASSERT_TRUE(q.try_pop(t));
  EXPECT_EQ(t[0], 7.0f);
  EXPECT_FALSE(q.try_pop(t));
  EXPECT_EQ(q.stats().rejected, 2);
}

TEST(SegmentQueue, OverflowPolicyNames) {
  EXPECT_EQ(runtime::overflow_policy_from_name("block"),
            runtime::OverflowPolicy::kBlock);
  EXPECT_EQ(runtime::overflow_policy_from_name("shed_oldest"),
            runtime::OverflowPolicy::kShedOldest);
  EXPECT_EQ(runtime::overflow_policy_from_name("shed"),
            runtime::OverflowPolicy::kShedOldest);
  EXPECT_THROW(runtime::overflow_policy_from_name("dropnew"), Error);
  EXPECT_EQ(runtime::overflow_policy_name(runtime::OverflowPolicy::kBlock),
            "block");
}

// ---- ConfigMap --------------------------------------------------------------

TEST(ConfigMap, ParsesKvTextWithCommentsAndOverrides) {
  runtime::ConfigMap m = runtime::ConfigMap::from_kv_text(
      "# a comment\n"
      "deco.ipc = 4\n"
      "\n"
      "stream.stc=8   # trailing comment\n"
      "deco.ipc = 6\n");  // later entry overrides
  EXPECT_EQ(m.get_int("deco.ipc", -1), 6);
  EXPECT_EQ(m.get_int("stream.stc", -1), 8);
  EXPECT_EQ(m.get_int("absent", 42), 42);
}

TEST(ConfigMap, ParsesFlatJson) {
  runtime::ConfigMap m = runtime::ConfigMap::from_json_text(
      R"({"deco.ipc": 4, "stream.stc": "8", "runtime.overflow": "shed_oldest",)"
      R"( "deco.use_majority_voting": false})");
  core::DecoConfig dc;
  data::StreamConfig sc;
  runtime::RuntimeConfig rc;
  m.apply(dc);
  m.apply(sc);
  m.apply(rc);
  m.check_fully_consumed();
  EXPECT_EQ(dc.ipc, 4);
  EXPECT_FALSE(dc.use_majority_voting);
  EXPECT_EQ(sc.stc, 8);
  EXPECT_EQ(rc.overflow, runtime::OverflowPolicy::kShedOldest);
}

TEST(ConfigMap, ErrorsNameTheOffendingKey) {
  // Unknown key under a handled prefix: the typo is named.
  {
    runtime::ConfigMap m;
    m.set("deco.treshold_m", "0.5");
    core::DecoConfig dc;
    try {
      m.apply(dc);
      FAIL() << "expected deco::Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("deco.treshold_m"),
                std::string::npos);
    }
  }
  // Malformed value: the key is named, not just the token.
  {
    runtime::ConfigMap m;
    m.set("stream.stc", "eight");
    data::StreamConfig sc;
    try {
      m.apply(sc);
      FAIL() << "expected deco::Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("stream.stc"), std::string::npos);
    }
  }
  // Bad enum value for the overflow policy.
  {
    runtime::ConfigMap m;
    m.set("runtime.overflow", "dropnew");
    runtime::RuntimeConfig rc;
    try {
      m.apply(rc);
      FAIL() << "expected deco::Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("runtime.overflow"),
                std::string::npos);
    }
  }
  // Leftover (never-consumed) keys are listed by name.
  {
    runtime::ConfigMap m;
    m.set("stream.stc", "4");
    m.set("bogus.key", "1");
    data::StreamConfig sc;
    m.apply(sc);
    try {
      m.check_fully_consumed();
      FAIL() << "expected deco::Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("bogus.key"), std::string::npos);
    }
  }
}

TEST(ConfigMap, AppliesRuntimeKeys) {
  runtime::ConfigMap m = runtime::ConfigMap::from_kv_text(
      "runtime.queue_depth = 5\n"
      "runtime.quantum = 2\n"
      "runtime.max_deficit = 6\n"
      "runtime.checkpoint_every = 3\n"
      "runtime.checkpoint_dir = /tmp/ckpts\n"
      "runtime.quarantine_after = 4\n"
      "runtime.pool_budget_mb = 64\n"
      "runtime.checkpoint_dtype = fp16\n"
      "runtime.keep_reports = true\n");
  runtime::RuntimeConfig rc;
  m.apply(rc);
  m.check_fully_consumed();
  EXPECT_EQ(rc.queue_depth, 5);
  EXPECT_EQ(rc.quantum, 2);
  EXPECT_EQ(rc.max_deficit, 6);
  EXPECT_EQ(rc.checkpoint_every, 3);
  EXPECT_EQ(rc.checkpoint_dir, "/tmp/ckpts");
  EXPECT_EQ(rc.quarantine_after, 4);
  EXPECT_EQ(rc.pool_budget_mb, 64);
  EXPECT_EQ(rc.checkpoint_dtype, DType::kF16);
  EXPECT_TRUE(rc.keep_reports);
  EXPECT_EQ(rc.pool_budget_bytes(), int64_t{64} << 20);
  rc.validate();
  rc.queue_depth = 0;
  EXPECT_THROW(rc.validate(), Error);
}

// ---- OnDeviceLearner promoted API -------------------------------------------

nn::ConvNetConfig tiny_net_config() {
  nn::ConvNetConfig mc;
  mc.in_channels = 1;
  mc.image_h = 8;
  mc.image_w = 8;
  mc.num_classes = 2;
  mc.width = 4;
  mc.depth = 1;
  return mc;
}

/// Minimal learner used to exercise the manager without real training cost.
/// Counts segments; optionally fails (throw or guard-skip) from a given
/// segment on; optionally persists a trivial state file.
class StubLearner : public core::OnDeviceLearner {
 public:
  explicit StubLearner(nn::ConvNet& model, int64_t fail_from = -1,
                       bool fail_by_throw = true, int64_t mem_bytes = 0)
      : model_(model),
        fail_from_(fail_from),
        fail_by_throw_(fail_by_throw),
        mem_bytes_(mem_bytes) {}

  core::SegmentReport observe_segment(const Tensor& images) override {
    ++segments_;
    seen_.push_back(images.numel() > 0 ? images[0] : -1.0f);
    core::SegmentReport rep;
    if (fail_from_ >= 0 && segments_ >= fail_from_) {
      DECO_CHECK(!fail_by_throw_, "stub learner induced failure");
      rep.segment_skipped = 1;
    }
    return rep;
  }
  nn::ConvNet& model() override { return model_; }
  std::string name() const override { return "stub"; }
  double condense_seconds() const override { return 0.0; }
  int64_t memory_bytes() const override { return mem_bytes_; }
  void set_checkpoint_dtype(DType dtype) override { checkpoint_dtype_ = dtype; }
  DType checkpoint_dtype() const { return checkpoint_dtype_; }

  bool supports_state() const override { return state_path_enabled_; }
  void save_state(const std::string& path) const override {
    if (!state_path_enabled_)
      return core::OnDeviceLearner::save_state(path);
    std::ofstream os(path);
    os << "segments=" << segments_;
  }
  void enable_state() { state_path_enabled_ = true; }

  int64_t segments() const { return segments_; }
  const std::vector<float>& seen() const { return seen_; }

 private:
  nn::ConvNet& model_;
  int64_t fail_from_;
  bool fail_by_throw_;
  int64_t mem_bytes_;
  DType checkpoint_dtype_ = DType::kF32;
  bool state_path_enabled_ = false;
  int64_t segments_ = 0;
  std::vector<float> seen_;
};

TEST(OnDeviceLearnerApi, DefaultsThrowOrNoOpWhereMeaningless) {
  Rng rng(1);
  nn::ConvNet model(tiny_net_config(), rng);
  StubLearner stub(model);
  EXPECT_FALSE(stub.supports_state());
  EXPECT_THROW(stub.save_state("/tmp/nope"), Error);
  EXPECT_THROW(stub.load_state("/tmp/nope"), Error);
  stub.update_model_now();  // default: no-op, must not throw
  // Default observe_labeled_segment ignores labels and forwards.
  std::vector<int64_t> labels = {0};
  stub.observe_labeled_segment(tagged(3.0f), labels);
  EXPECT_EQ(stub.segments(), 1);
}

// ---- SessionManager ---------------------------------------------------------

struct StubSessionSet {
  std::vector<StubLearner*> stubs;  // borrowed; owned by the manager
  std::shared_ptr<nn::ConvNet> model;
};

StubSessionSet add_stub_sessions(runtime::SessionManager& mgr, int64_t n,
                                 int64_t fail_from = -1,
                                 bool fail_by_throw = true) {
  StubSessionSet set;
  Rng rng(1);
  set.model = std::make_shared<nn::ConvNet>(tiny_net_config(), rng);
  for (int64_t i = 0; i < n; ++i) {
    // Only session 0 fails; the rest must be unaffected.
    auto stub = std::make_unique<StubLearner>(
        *set.model, i == 0 ? fail_from : -1, fail_by_throw);
    set.stubs.push_back(stub.get());
    mgr.add_session("s" + std::to_string(i), std::move(stub), set.model);
  }
  return set;
}

TEST(SessionManager, DrainProcessesEverySubmittedSegmentInOrder) {
  runtime::RuntimeConfig rc;
  rc.queue_depth = 8;
  runtime::SessionManager mgr(rc);
  StubSessionSet set = add_stub_sessions(mgr, 3);
  for (int seg = 0; seg < 4; ++seg)
    for (int s = 0; s < 3; ++s)
      EXPECT_TRUE(mgr.submit("s" + std::to_string(s),
                             tagged(static_cast<float>(100 * s + seg))));
  mgr.drain();
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(set.stubs[s]->segments(), 4);
    for (int seg = 0; seg < 4; ++seg)  // per-session arrival order preserved
      EXPECT_EQ(set.stubs[s]->seen()[seg], static_cast<float>(100 * s + seg));
    const runtime::SessionStatus st = mgr.status("s" + std::to_string(s));
    EXPECT_EQ(st.state, runtime::SessionState::kActive);
    EXPECT_EQ(st.segments_processed, 4);
    EXPECT_LE(st.queue.max_depth, rc.queue_depth);
  }
  EXPECT_EQ(mgr.total_processed(), 12);
}

TEST(SessionManager, DeficitRoundRobinGivesOneQuantumPerRound) {
  const int prev_threads = core::num_threads();
  core::set_num_threads(1);
  runtime::RuntimeConfig rc;
  rc.queue_depth = 8;
  rc.quantum = 1;
  runtime::SessionManager mgr(rc);
  StubSessionSet set = add_stub_sessions(mgr, 2);
  for (int seg = 0; seg < 3; ++seg) {
    ASSERT_TRUE(mgr.submit("s0", tagged(0)));
    ASSERT_TRUE(mgr.submit("s1", tagged(1)));
  }
  // quantum=1: each round advances every backlogged session by exactly one.
  EXPECT_EQ(mgr.run_round(), 2);
  EXPECT_EQ(set.stubs[0]->segments(), 1);
  EXPECT_EQ(set.stubs[1]->segments(), 1);
  EXPECT_EQ(mgr.run_round(), 2);
  EXPECT_EQ(set.stubs[0]->segments(), 2);
  EXPECT_EQ(set.stubs[1]->segments(), 2);
  mgr.drain();
  EXPECT_EQ(mgr.total_processed(), 6);
  core::set_num_threads(prev_threads);
}

TEST(SessionManager, QuarantinesFailingSessionOthersKeepRunning) {
  for (const bool by_throw : {true, false}) {
    runtime::RuntimeConfig rc;
    rc.queue_depth = 16;
    rc.quarantine_after = 2;
    runtime::SessionManager mgr(rc);
    // Session 0 fails every segment from the 2nd on (throw in one pass,
    // guard-skip in the other); sessions 1..2 are healthy.
    add_stub_sessions(mgr, 3, 2, by_throw);
    for (int seg = 0; seg < 6; ++seg)
      for (int s = 0; s < 3; ++s)
        mgr.submit("s" + std::to_string(s), tagged(static_cast<float>(seg)));
    mgr.drain();

    const runtime::SessionStatus bad = mgr.status("s0");
    EXPECT_EQ(bad.state, runtime::SessionState::kQuarantined);
    EXPECT_EQ(bad.consecutive_failures, 2);
    EXPECT_EQ(bad.segments_processed, 3);  // 1 ok + 2 failures, then stopped
    EXPECT_FALSE(bad.last_error.empty());
    // A quarantined session's queue is closed: further submits bounce.
    EXPECT_FALSE(mgr.submit("s0", tagged(0)));
    for (int s = 1; s < 3; ++s) {
      const runtime::SessionStatus ok = mgr.status("s" + std::to_string(s));
      EXPECT_EQ(ok.state, runtime::SessionState::kActive);
      EXPECT_EQ(ok.segments_processed, 6);
    }
  }
}

TEST(SessionManager, AdmissionControlEnforcesMemoryBudget) {
  runtime::RuntimeConfig rc;
  rc.pool_budget_mb = 1;  // 1 MiB fleet budget
  runtime::SessionManager mgr(rc);
  Rng rng(1);
  auto model = std::make_shared<nn::ConvNet>(tiny_net_config(), rng);
  mgr.add_session("fits",
                  std::make_unique<StubLearner>(*model, -1, true, 600 << 10),
                  model);
  try {
    mgr.add_session(
        "toobig", std::make_unique<StubLearner>(*model, -1, true, 600 << 10),
        model);
    FAIL() << "expected deco::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("toobig"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos);
  }
  EXPECT_EQ(mgr.session_count(), 1);
  EXPECT_THROW(mgr.submit("toobig", tagged(0)), Error);
}

TEST(SessionManager, AdmissionUsesStoredCacheBytes) {
  // Two DECO learners with identical logical caches: int8 storage must make
  // the *stored* figure — the one memory_bytes() reports and admission
  // charges — small enough that a budget rejecting a second fp32 session
  // still admits two quantized ones.
  data::ProceduralImageWorld world(data::icub1_spec(), 60);
  data::Dataset labeled = world.make_labeled_set(2, 1);
  nn::ConvNetConfig mc;
  mc.in_channels = world.spec().channels;
  mc.image_h = world.spec().height;
  mc.image_w = world.spec().width;
  mc.num_classes = world.spec().num_classes;
  mc.width = 8;
  mc.depth = 2;

  core::DecoConfig base;
  base.ipc = 18;
  base.beta = 2;
  base.model_update_epochs = 1;
  base.condenser.iterations = 1;
  auto make_learner = [&](std::shared_ptr<nn::ConvNet>& model, DType dtype) {
    Rng rng(1);
    model = std::make_shared<nn::ConvNet>(mc, rng);
    core::DecoConfig cfg = base;
    cfg.storage.cache_dtype = dtype;
    auto learner = std::make_unique<core::DecoLearner>(*model, cfg, 1);
    learner->init_buffer_from(labeled);
    return learner;
  };

  std::shared_ptr<nn::ConvNet> mf32, mq8;
  auto probe_f32 = make_learner(mf32, DType::kF32);
  auto probe_q8 = make_learner(mq8, DType::kQ8);
  const int64_t f32_bytes = probe_f32->memory_bytes();
  const int64_t q8_bytes = probe_q8->memory_bytes();
  ASSERT_LT(q8_bytes, f32_bytes);
  // One fp32 session fits in 1 MiB, two do not; two int8 sessions fit.
  ASSERT_LT(f32_bytes, int64_t{1} << 20);
  ASSERT_GT(2 * f32_bytes, int64_t{1} << 20);
  ASSERT_LT(2 * q8_bytes, int64_t{1} << 20);

  runtime::RuntimeConfig rc;
  rc.pool_budget_mb = 1;
  {
    runtime::SessionManager mgr(rc);
    mgr.add_session("f32_a", std::move(probe_f32), mf32);
    std::shared_ptr<nn::ConvNet> m2;
    auto second = make_learner(m2, DType::kF32);
    EXPECT_THROW(mgr.add_session("f32_b", std::move(second), m2), Error);
    EXPECT_EQ(mgr.session_count(), 1);
  }
  {
    runtime::SessionManager mgr(rc);
    mgr.add_session("q8_a", std::move(probe_q8), mq8);
    std::shared_ptr<nn::ConvNet> m2;
    auto second = make_learner(m2, DType::kQ8);
    mgr.add_session("q8_b", std::move(second), m2);  // must not throw
    EXPECT_EQ(mgr.session_count(), 2);
  }
}

TEST(SessionManager, AppliesCheckpointDtypePolicyToLearners) {
  runtime::RuntimeConfig rc;
  rc.checkpoint_dtype = DType::kF16;
  runtime::SessionManager mgr(rc);
  Rng rng(1);
  auto model = std::make_shared<nn::ConvNet>(tiny_net_config(), rng);
  auto stub = std::make_unique<StubLearner>(*model);
  StubLearner* raw = stub.get();
  EXPECT_EQ(raw->checkpoint_dtype(), DType::kF32);
  mgr.add_session("policy", std::move(stub), model);
  EXPECT_EQ(raw->checkpoint_dtype(), DType::kF16)
      << "add_session must push the runtime checkpoint dtype policy";
}

TEST(SessionManager, PeriodicCheckpointsForStatefulLearners) {
  runtime::RuntimeConfig rc;
  rc.queue_depth = 16;
  rc.checkpoint_every = 2;
  rc.checkpoint_dir = deco::testing::unique_temp_path("ckpts");
  std::filesystem::create_directories(rc.checkpoint_dir);
  runtime::SessionManager mgr(rc);
  Rng rng(1);
  auto model = std::make_shared<nn::ConvNet>(tiny_net_config(), rng);
  auto stub = std::make_unique<StubLearner>(*model);
  stub->enable_state();
  mgr.add_session("ckpt", std::move(stub), model);
  for (int seg = 0; seg < 5; ++seg) mgr.submit("ckpt", tagged(0));
  mgr.drain();
  const runtime::SessionStatus st = mgr.status("ckpt");
  EXPECT_EQ(st.segments_processed, 5);
  EXPECT_EQ(st.checkpoints_written, 2);  // after segments 2 and 4
  std::ifstream is(st.checkpoint_path);
  ASSERT_TRUE(is.is_open()) << st.checkpoint_path;
  std::string content;
  std::getline(is, content);
  EXPECT_EQ(content, "segments=4");
  is.close();
  std::filesystem::remove_all(rc.checkpoint_dir);
}

TEST(SessionManager, PumpThreadProcessesConcurrentSubmissions) {
  runtime::RuntimeConfig rc;
  rc.queue_depth = 4;
  rc.overflow = runtime::OverflowPolicy::kBlock;
  runtime::SessionManager mgr(rc);
  add_stub_sessions(mgr, 2);
  mgr.start();
  // Two producer threads, more segments than the queue depth: backpressure
  // (kBlock) must throttle them without losing a single segment.
  std::vector<std::thread> producers;
  for (int s = 0; s < 2; ++s)
    producers.emplace_back([&, s] {
      for (int seg = 0; seg < 10; ++seg)
        EXPECT_TRUE(mgr.submit("s" + std::to_string(s),
                               tagged(static_cast<float>(seg))));
    });
  for (auto& p : producers) p.join();
  mgr.stop();
  for (int s = 0; s < 2; ++s) {
    const runtime::SessionStatus st = mgr.status("s" + std::to_string(s));
    EXPECT_EQ(st.segments_processed, 10);
    EXPECT_LE(st.queue.max_depth, rc.queue_depth);
    EXPECT_EQ(st.queue.shed, 0);
  }
}

TEST(SessionManager, UnknownSessionNamesThrow) {
  runtime::SessionManager mgr(runtime::RuntimeConfig{});
  EXPECT_THROW(mgr.submit("ghost", tagged(0)), Error);
  EXPECT_THROW(mgr.status("ghost"), Error);
  EXPECT_THROW(mgr.learner("ghost"), Error);
  EXPECT_THROW(mgr.add_session("x", nullptr), Error);
}

}  // namespace
}  // namespace deco
