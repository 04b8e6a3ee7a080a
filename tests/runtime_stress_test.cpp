// Multi-session runtime determinism stress tests.
//
// The SessionManager's contract is that concurrency is *invisible* to each
// session: an 8-session concurrent run must produce, per session, the same
// bytes as running that session alone in a plain sequential loop — at ANY
// DECO_NUM_THREADS. These tests prove it the strong way: DecoLearner's
// save_state file covers the model parameters, the synthetic buffer, rng and
// condenser momentum state, so comparing those files byte-for-byte (plus the
// full report streams) leaves no room for "close enough".
//
// Also covered: mid-run kill of one session (resume from its periodic
// checkpoint) leaves every session — resumed and bystanders — bit-exact.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "deco/core/thread_pool.h"
#include "deco/runtime/fleet.h"
#include "deco/runtime/session_manager.h"
#include "test_util.h"

namespace deco {
namespace {

runtime::FleetConfig stress_config(int64_t sessions) {
  runtime::FleetConfig fc;
  fc.sessions = sessions;
  fc.spec.name = "stress";
  fc.spec.num_classes = 3;
  fc.spec.channels = 3;
  fc.spec.height = 8;
  fc.spec.width = 8;
  fc.spec.instances_per_class = 2;
  fc.stream.stc = 8;
  fc.stream.segment_size = 8;
  fc.stream.total_segments = 4;
  fc.deco.ipc = 2;
  fc.deco.beta = 2;
  fc.deco.model_update_epochs = 1;
  fc.deco.train_batch = 8;
  fc.deco.condenser.iterations = 2;
  fc.model_width = 8;
  fc.model_depth = 2;
  fc.labeled_per_class = 2;
  fc.runtime.queue_depth = 3;  // smaller than the stream: exercises refills
  fc.runtime.keep_reports = true;
  return fc;
}

std::string state_bytes(core::OnDeviceLearner& learner,
                        const std::string& tag) {
  const std::string path = deco::testing::unique_temp_path(tag + ".state");
  learner.save_state(path);
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  std::remove(path.c_str());
  return buf.str();
}

std::string report_fingerprint(const std::vector<core::SegmentReport>& reps) {
  std::ostringstream os;
  for (const core::SegmentReport& r : reps) {
    for (int64_t l : r.pseudo_labels) os << l << ",";
    for (float c : r.confidences) os << c << ",";
    for (int64_t k : r.retained) os << k << ",";
    os << "|" << r.active_class_count << "|" << r.condense_distance << ";";
  }
  return os.str();
}

/// Pre-materializes every session's stream so the sequential reference and
/// the concurrent runs consume the exact same tensors.
std::vector<std::vector<Tensor>> materialize_streams(
    const runtime::FleetConfig& fc, const data::ProceduralImageWorld& world) {
  std::vector<std::vector<Tensor>> out(static_cast<size_t>(fc.sessions));
  for (int64_t i = 0; i < fc.sessions; ++i) {
    data::TemporalStream stream(world, fc.stream,
                                runtime::Fleet::stream_seed(fc, i));
    data::Segment seg;
    while (stream.next(seg))
      out[static_cast<size_t>(i)].push_back(seg.images);
  }
  return out;
}

struct SessionOutcome {
  std::string state;
  std::string reports;
};

/// The reference: each session runs alone, segments in order, no manager.
std::vector<SessionOutcome> run_sequential(
    const runtime::FleetConfig& fc, const data::ProceduralImageWorld& world,
    const std::vector<std::vector<Tensor>>& streams) {
  std::vector<SessionOutcome> out(static_cast<size_t>(fc.sessions));
  for (int64_t i = 0; i < fc.sessions; ++i) {
    runtime::LearnerHandle h = runtime::Fleet::make_learner(fc, world, i);
    std::vector<core::SegmentReport> reports;
    for (const Tensor& seg : streams[static_cast<size_t>(i)])
      reports.push_back(h.learner->observe_segment(seg));
    out[static_cast<size_t>(i)].state =
        state_bytes(*h.learner, "seq" + std::to_string(i));
    out[static_cast<size_t>(i)].reports = report_fingerprint(reports);
  }
  return out;
}

/// The system under test: all sessions share one manager, pump thread on,
/// interleaved round-robin submission.
std::vector<SessionOutcome> run_concurrent(
    const runtime::FleetConfig& fc, const data::ProceduralImageWorld& world,
    const std::vector<std::vector<Tensor>>& streams) {
  runtime::SessionManager mgr(fc.runtime);
  for (int64_t i = 0; i < fc.sessions; ++i) {
    runtime::LearnerHandle h = runtime::Fleet::make_learner(fc, world, i);
    mgr.add_session(runtime::Fleet::session_name(i), std::move(h.learner),
                    std::move(h.keepalive));
  }
  mgr.start();
  const size_t per_session = streams[0].size();
  for (size_t seg = 0; seg < per_session; ++seg)
    for (int64_t i = 0; i < fc.sessions; ++i)
      EXPECT_TRUE(mgr.submit(runtime::Fleet::session_name(i),
                             streams[static_cast<size_t>(i)][seg]));
  mgr.stop();

  std::vector<SessionOutcome> out(static_cast<size_t>(fc.sessions));
  for (int64_t i = 0; i < fc.sessions; ++i) {
    const std::string name = runtime::Fleet::session_name(i);
    const runtime::SessionStatus st = mgr.status(name);
    EXPECT_EQ(st.segments_processed,
              static_cast<int64_t>(per_session)) << name;
    EXPECT_LE(st.queue.max_depth, fc.runtime.queue_depth) << name;
    EXPECT_EQ(st.queue.shed, 0) << name;
    out[static_cast<size_t>(i)].state =
        state_bytes(mgr.learner(name), "conc" + std::to_string(i));
    out[static_cast<size_t>(i)].reports = report_fingerprint(mgr.reports(name));
  }
  return out;
}

TEST(RuntimeStress, EightConcurrentSessionsMatchSequentialAtAnyThreadCount) {
  const runtime::FleetConfig fc = stress_config(8);
  data::ProceduralImageWorld world(fc.spec, runtime::Fleet::world_seed(fc));
  const std::vector<std::vector<Tensor>> streams =
      materialize_streams(fc, world);

  const int prev_threads = core::num_threads();
  core::set_num_threads(1);
  const std::vector<SessionOutcome> ref =
      run_sequential(fc, world, streams);
  for (const SessionOutcome& r : ref) {
    ASSERT_GT(r.state.size(), 1000u);  // a real DECOLSAV file, not an empty one
    ASSERT_FALSE(r.reports.empty());
  }

  for (const int threads : {1, 2, 4}) {
    core::set_num_threads(threads);
    const std::vector<SessionOutcome> got =
        run_concurrent(fc, world, streams);
    for (int64_t i = 0; i < fc.sessions; ++i) {
      const size_t s = static_cast<size_t>(i);
      EXPECT_EQ(got[s].state, ref[s].state)
          << "session " << i << " state bytes diverged at " << threads
          << " threads";
      EXPECT_EQ(got[s].reports, ref[s].reports)
          << "session " << i << " reports diverged at " << threads
          << " threads";
    }
  }
  core::set_num_threads(prev_threads);
}

TEST(RuntimeStress, KillAndResumeOneSessionLeavesEveryoneBitExact) {
  runtime::FleetConfig fc = stress_config(3);
  fc.stream.total_segments = 6;
  fc.runtime.checkpoint_every = 3;
  fc.runtime.checkpoint_dir = deco::testing::unique_temp_path("ckpts");
  std::filesystem::create_directories(fc.runtime.checkpoint_dir);
  data::ProceduralImageWorld world(fc.spec, runtime::Fleet::world_seed(fc));
  const std::vector<std::vector<Tensor>> streams =
      materialize_streams(fc, world);

  const int prev_threads = core::num_threads();
  core::set_num_threads(1);
  const std::vector<SessionOutcome> ref =
      run_sequential(fc, world, streams);

  core::set_num_threads(2);
  const int64_t victim = 1;
  runtime::SessionManager mgr(fc.runtime);
  for (int64_t i = 0; i < fc.sessions; ++i) {
    runtime::LearnerHandle h = runtime::Fleet::make_learner(fc, world, i);
    mgr.add_session(runtime::Fleet::session_name(i), std::move(h.learner),
                    std::move(h.keepalive));
  }
  mgr.start();
  // The victim "dies" after its 3rd segment (right on a checkpoint boundary);
  // the bystanders receive their full streams.
  for (size_t seg = 0; seg < 6; ++seg) {
    for (int64_t i = 0; i < fc.sessions; ++i) {
      if (i == victim && seg >= 3) continue;
      ASSERT_TRUE(mgr.submit(runtime::Fleet::session_name(i),
                             streams[static_cast<size_t>(i)][seg]));
    }
  }
  mgr.stop();

  const runtime::SessionStatus vs =
      mgr.status(runtime::Fleet::session_name(victim));
  ASSERT_EQ(vs.segments_processed, 3);
  ASSERT_EQ(vs.checkpoints_written, 1);

  // Resurrect the victim in a fresh learner from its periodic checkpoint and
  // replay only the segments it missed.
  runtime::LearnerHandle resumed =
      runtime::Fleet::make_learner(fc, world, victim);
  resumed.learner->load_state(vs.checkpoint_path);
  for (size_t seg = 3; seg < 6; ++seg)
    resumed.learner->observe_segment(streams[static_cast<size_t>(victim)][seg]);
  std::filesystem::remove_all(fc.runtime.checkpoint_dir);

  EXPECT_EQ(state_bytes(*resumed.learner, "resumed"),
            ref[static_cast<size_t>(victim)].state)
      << "resumed victim diverged from the uninterrupted reference";
  for (int64_t i = 0; i < fc.sessions; ++i) {
    if (i == victim) continue;
    const std::string name = runtime::Fleet::session_name(i);
    EXPECT_EQ(state_bytes(mgr.learner(name), "bystander" + std::to_string(i)),
              ref[static_cast<size_t>(i)].state)
        << "bystander session " << i << " was disturbed by the kill";
  }
  core::set_num_threads(prev_threads);
}

}  // namespace
}  // namespace deco
