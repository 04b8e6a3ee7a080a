// deco_perfbench: the repo benchmark.
//
//   deco_perfbench --workload <paper_stream|hires_stream|fleet_open>
//                  --seed <n> --seconds <s> --trace <0|1>
//
// A run is a sequence of passes. A pass builds the learners for one sub-seed
// (pre-training included), streams a fixed number of segments through them
// and checks the outputs: every segment accounted for, accuracy finite and in
// [0, 100], and a save_state round trip. The untraced run covers the
// workload's distinct sub-seeds once, then repeats them while --seconds
// allow; a repeated sub-seed must reproduce its save_state digests, accuracy
// and state bytes exactly. Latencies pool over all passes; the deterministic
// figures are means over the distinct sub-seeds.
//
// --trace 0 prints the end-to-end metrics with telemetry off. --trace 1 runs
// every sub-seed twice, untraced then traced (the digests must agree: the
// telemetry is inert), and prints the per-layer metrics, taken from the
// benchmark's own timers and core::telemetry::snapshot(), plus
// trace.overhead_pct (traced vs untraced plain-segment service time).
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "deco/core/learner.h"
#include "deco/core/telemetry.h"
#include "deco/core/thread_pool.h"
#include "deco/core/workspace.h"
#include "deco/data/stream.h"
#include "deco/data/world.h"
#include "deco/eval/metrics.h"
#include "deco/runtime/fleet.h"
#include "deco/runtime/session_manager.h"
#include "open_loop.h"
#include "stats.h"

namespace {

using namespace deco;
using perfbench::now_s;
using perfbench::SegmentTiming;
using perfbench::TimedLearner;
namespace telem = core::telemetry;

// ---- workload shapes ---------------------------------------------------------
//
// Constants, not options: later changes are judged against these shapes.
// Paper shape (Section IV-A): ConvNet width 32 / depth 3, ipc 10, β = 10,
// majority-vote threshold 0.4. One condensation iteration per segment and
// two update epochs per β retrain keep one run long enough in samples (a p90
// needs 100 plain segments) and short enough in time.

/// The procedural world, the labelled pre-training subset, the initial
/// weights and the learners' own seeds are fixed, like the dataset and the
/// deployed model in the paper; --seed draws only the input streams.
constexpr uint64_t kFixedSeed = 2025;
constexpr int64_t kBeta = 10;
constexpr int64_t kIpc = 10;
constexpr int64_t kCondenseIterations = 1;
constexpr int64_t kUpdateEpochs = 2;
constexpr int64_t kTestPerClass = 20;
constexpr int64_t kPretrainEpochs = 5;
/// Pre-training (20 labelled frames per class) uses a larger step than the
/// learner's 1e-3, so five epochs give even per-class accuracy: majority
/// voting then keeps most segments whichever classes a stream visits.
constexpr float kPretrainLr = 0.03f;

struct StreamShape {
  const char* name;
  data::DatasetSpec spec;
  int64_t stc;               ///< mean class-run length, in frames
  int64_t segment_size;
  bool video_mode;
  int threads;
  int64_t pretrain_per_class;
  int64_t segments_per_pass;
  int64_t distinct_seeds;    ///< sub-seeds averaged by one untraced run
};

/// Class runs of 12-36 frames (stc 24), shorter than a segment: a fifth of
/// the segments then hold two voted classes and cost about 1.4x, so the p90
/// of plain segments falls inside that group. With runs of two segments the
/// group was a seed-dependent 8-15% and the p90 sat on its edge.
StreamShape paper_stream() {
  return {"paper_stream", data::core50_spec(), 24, 32, true, 1, 20, 40, 8};
}

/// 37 segments = 34 plain + 3 retrain: three passes give the 100 plain
/// segments a p90 needs at the least cost in time.
StreamShape hires_stream() {
  return {"hires_stream", data::imagenet10_spec(), 48, 24, false, 2, 20, 37, 3};
}

// fleet_open: four sessions of a small model, two int8-cache sessions and
// their fp32 twins (same seeds), int8 checkpoints, class runs as in
// paper_stream. Arrivals are offered at about a quarter of the fleet's
// capacity (21 segments/s with 2 pool threads on a shared 4-vCPU VM when
// this benchmark was introduced). The four sessions' retrain segments
// (about 100 ms each, plus a checkpoint) are due in consecutive slots; at
// half capacity (95 ms slots) each one queued behind the last by an amount
// that swung with host speed, while 200 ms slots leave every retrain room
// to finish before the next arrival even on a slow host.
constexpr int kFleetThreads = 2;
constexpr int64_t kFleetPerSession = 20;
constexpr double kFleetRatePerS = 5.0;
constexpr int64_t kCheckpointEvery = 5;
constexpr int64_t kFleetDistinctSeeds = 3;

runtime::FleetConfig fleet_config(DType cache_dtype,
                                  const std::string& checkpoint_dir) {
  runtime::FleetConfig fc;
  fc.spec = data::core50_spec();
  fc.stream.stc = 24;
  fc.stream.segment_size = 32;
  fc.stream.video_mode = true;
  fc.stream.total_segments = kFleetPerSession;
  fc.deco.ipc = kIpc;
  fc.deco.beta = kBeta;
  fc.deco.model_update_epochs = kUpdateEpochs;
  fc.deco.condenser.iterations = 2;
  fc.deco.storage.cache_dtype = cache_dtype;
  fc.runtime.queue_depth = kFleetPerSession;  // arrivals never block or shed
  fc.runtime.checkpoint_every = kCheckpointEvery;
  fc.runtime.checkpoint_dir = checkpoint_dir;
  fc.runtime.checkpoint_dtype = DType::kQ8;
  fc.runtime.pool_budget_mb = 1024;
  fc.labeled_per_class = 20;
  fc.model_width = 16;
  fc.model_depth = 2;
  fc.seed = kFixedSeed;
  return fc;
}

/// Stream seed of sub-seed k of a run; fleet twins add their twin index.
uint64_t sub_seed(uint64_t seed, int64_t k) {
  return seed * 1000 + static_cast<uint64_t>(k) * 10;
}

// ---- small helpers -----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") throw std::runtime_error("--trace takes 0 or 1");
      a.trace = v == "1";
    } else {
      throw std::runtime_error("unknown argument " + k);
    }
  }
  if (!have_workload) throw std::runtime_error("--workload is required");
  if (!(a.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// (steal, total) jiffies from the aggregate cpu line of /proc/stat.
std::pair<double, double> steal_jiffies() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  double total = 0.0, steal = 0.0, x = 0.0;
  for (int i = 0; i < 8 && (f >> x); ++i) {
    total += x;
    if (i == 7) steal = x;
  }
  return {steal, total};
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

uint64_t fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

int64_t differing_bytes(const std::string& a, const std::string& b) {
  int64_t n = std::abs(static_cast<int64_t>(a.size()) - static_cast<int64_t>(b.size()));
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) n += a[i] != b[i];
  return n;
}

void pretrain(nn::ConvNet& model, const data::Dataset& labeled, uint64_t seed) {
  std::vector<int64_t> all(static_cast<size_t>(labeled.size()));
  for (int64_t i = 0; i < labeled.size(); ++i) all[static_cast<size_t>(i)] = i;
  Rng rng(seed);
  core::train_classifier(model, labeled.batch(all), labeled.labels(),
                         kPretrainEpochs, kPretrainLr, 5e-4f, 32, rng);
}

double pct(int64_t part, int64_t whole) {
  return whole > 0 ? 100.0 * static_cast<double>(part) / static_cast<double>(whole)
                   : NAN;
}

// ---- what a run accumulates --------------------------------------------------

struct LabelTally {
  int64_t correct = 0;
  int64_t total = 0;
};

/// The deterministic outputs of one pass; a repeat of its sub-seed must
/// reproduce them exactly.
struct PassOutputs {
  std::vector<std::string> sessions;
  std::vector<uint64_t> digests;  ///< FNV-1a of each session's save_state
  double accuracy_pct = NAN;
  double pseudo_acc_pct = NAN;
  int64_t state_bytes = 0;

  bool operator==(const PassOutputs&) const = default;
};

struct RunData {
  bool correct = true;
  std::vector<std::string> errors;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<PassOutputs> by_sub_seed;
  int64_t passes = 0;

  std::vector<double> setup_s, world_s, pretrain_s, init_buffer_s;
  std::vector<SegmentTiming> timings;  ///< every segment of every pass
  std::vector<bool> timing_traced;     ///< parallel to timings
  double stream_wall_s = 0.0;
  double stream_cpu_s = 0.0;
  int64_t stream_segments = 0;

  std::vector<double> next_s, save_s, load_s, lag_s;
  std::vector<double> int8_service_s, fp32_service_s;
  int64_t checkpoint_bytes = 0;
  int64_t roundtrip_diff_bytes = 0;  ///< first int8 re-save vs original
  int64_t frames = 0, retained = 0;
  std::vector<int64_t> active_hist = std::vector<int64_t>(4, 0);  ///< 0,1,2,3+
  int64_t queue_depth_max = 0;
  double compression_x = 1.0;
  int64_t hot_allocs = 0;

  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }

  void record(int64_t sub, PassOutputs out) {
    if (sub < static_cast<int64_t>(by_sub_seed.size())) {
      if (!(out == by_sub_seed[static_cast<size_t>(sub)]))
        fail("pass " + std::to_string(passes) + " did not repeat sub-seed " +
             std::to_string(sub) + "'s digests, accuracy and state bytes");
    } else {
      for (double v : {out.accuracy_pct, out.pseudo_acc_pct})
        if (!std::isfinite(v) || v < 0.0 || v > 100.0)
          fail("accuracy out of [0, 100]: " + std::to_string(v));
      by_sub_seed.push_back(std::move(out));
    }
    ++passes;
  }

  double mean_of(double PassOutputs::*field) const {
    double sum = 0.0;
    for (const PassOutputs& o : by_sub_seed) sum += o.*field;
    return by_sub_seed.empty() ? NAN : sum / static_cast<double>(by_sub_seed.size());
  }

  void note_segment(const std::vector<int64_t>& pseudo_labels,
                    const std::vector<int64_t>& truth, int64_t retained_frames,
                    int64_t active_classes, LabelTally& labels) {
    for (size_t j = 0; j < pseudo_labels.size() && j < truth.size(); ++j)
      labels.correct += pseudo_labels[j] == truth[j];
    labels.total += static_cast<int64_t>(pseudo_labels.size());
    frames += static_cast<int64_t>(truth.size());
    retained += retained_frames;
    ++active_hist[static_cast<size_t>(std::min<int64_t>(3, active_classes))];
  }
};

/// Checkpoint directory under the working directory, removed on exit.
struct ScratchDir {
  std::string path;
  explicit ScratchDir(std::string p) : path(std::move(p)) {
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

/// Loads `saved` into a fresh twin (timed) and saves the twin to `resaved`;
/// returns the re-saved bytes.
std::string load_and_resave(core::OnDeviceLearner& twin, const std::string& saved,
                            const std::string& resaved, RunData& run) {
  const double t0 = now_s();
  twin.load_state(saved);
  run.load_s.push_back(now_s() - t0);
  twin.save_state(resaved);
  return read_file(resaved);
}

// ---- closed-loop stream workloads ----------------------------------------------

/// The paper's ConvNet shape: width 32, depth 3.
nn::ConvNetConfig stream_net_config(const data::DatasetSpec& spec) {
  nn::ConvNetConfig mc;
  mc.in_channels = spec.channels;
  mc.image_h = spec.height;
  mc.image_w = spec.width;
  mc.num_classes = spec.num_classes;
  mc.width = 32;
  mc.depth = 3;
  return mc;
}

PassOutputs stream_pass(const StreamShape& w, uint64_t stream_seed,
                        const std::string& dir, bool traced, RunData& run) {
  // -- set-up: world + data, pre-training, learner + warm-start buffer.
  const double s0 = now_s();
  const data::ProceduralImageWorld world(w.spec, kFixedSeed);
  const data::Dataset labeled =
      world.make_labeled_set(w.pretrain_per_class, kFixedSeed + 1);
  const data::Dataset test = world.make_test_set(kTestPerClass, kFixedSeed + 2);
  const double s1 = now_s();
  const nn::ConvNetConfig mc = stream_net_config(w.spec);
  Rng init_rng(kFixedSeed + 3);
  nn::ConvNet model(mc, init_rng);
  pretrain(model, labeled, kFixedSeed + 4);
  const double s2 = now_s();
  core::DecoConfig cfg;
  cfg.ipc = kIpc;
  cfg.beta = kBeta;
  cfg.model_update_epochs = kUpdateEpochs;
  cfg.condenser.iterations = kCondenseIterations;
  core::DecoLearner learner(model, cfg, kFixedSeed + 5);
  learner.init_buffer_from(labeled);
  const double s3 = now_s();
  run.world_s.push_back(s1 - s0);
  run.pretrain_s.push_back(s2 - s1);
  run.init_buffer_s.push_back(s3 - s2);
  run.setup_s.push_back(s3 - s0);

  // -- closed loop: the next segment is handed over when the last returns.
  data::StreamConfig sc;
  sc.stc = w.stc;
  sc.segment_size = w.segment_size;
  sc.total_segments = w.segments_per_pass;
  sc.video_mode = w.video_mode;
  data::TemporalStream stream(world, sc, stream_seed);

  LabelTally labels;
  const core::MemStatsSnapshot mem0 = core::memstats();
  const double wall0 = now_s(), cpu0 = cpu_seconds();
  data::Segment seg;
  for (int64_t k = 1;; ++k) {
    const double n0 = now_s();
    if (!stream.next(seg)) break;
    const double t0 = now_s();
    run.next_s.push_back(t0 - n0);
    ++run.attempted;
    core::SegmentReport rep;
    try {
      rep = learner.observe_segment(seg.images);
    } catch (const std::exception& e) {
      ++run.failed;
      run.fail(std::string("observe_segment threw: ") + e.what());
      continue;
    }
    const double t1 = now_s();
    if (rep.segment_skipped != 0) ++run.failed;
    run.timings.push_back({t0, t0, t1, perfbench::is_retrain_segment(k, kBeta)});
    run.timing_traced.push_back(traced);
    run.note_segment(rep.pseudo_labels, seg.true_labels,
                     static_cast<int64_t>(rep.retained.size()),
                     rep.active_class_count, labels);
  }
  run.stream_wall_s += now_s() - wall0;
  run.stream_cpu_s += cpu_seconds() - cpu0;
  run.stream_segments += stream.segments_emitted();
  if (run.passes > 0) run.hot_allocs += (core::memstats() - mem0).hot_allocs();
  if (stream.segments_emitted() != w.segments_per_pass)
    run.fail("stream emitted " + std::to_string(stream.segments_emitted()) +
             " segments, expected " + std::to_string(w.segments_per_pass));

  // -- outputs; save->load->save through a fresh twin is byte-identical at
  // the fp32 checkpoint dtype.
  PassOutputs out;
  out.sessions = {w.name};
  out.accuracy_pct = eval::accuracy(model, test);
  out.pseudo_acc_pct = pct(labels.correct, labels.total);
  out.state_bytes = learner.memory_bytes();
  const std::string saved = dir + "/stream.state";
  const double c0 = now_s();
  learner.save_state(saved);
  run.save_s.push_back(now_s() - c0);
  const std::string bytes = read_file(saved);
  out.digests = {fnv1a(bytes)};
  run.checkpoint_bytes = static_cast<int64_t>(bytes.size());

  Rng twin_rng(kFixedSeed + 6);
  nn::ConvNet twin_model(mc, twin_rng);
  core::DecoLearner twin(twin_model, cfg, kFixedSeed + 5);
  twin.init_buffer_from(labeled);
  if (load_and_resave(twin, saved, dir + "/stream.resaved", run) != bytes)
    run.fail(std::string(w.name) + ": save->load->save is not byte-identical");
  return out;
}

// ---- open-loop fleet workload --------------------------------------------------

struct FleetSession {
  std::string name;
  int64_t twin_index;  ///< Fleet::make_learner index; int8/fp32 twins share it
  DType cache_dtype;
};

const std::vector<FleetSession>& fleet_sessions() {
  static const std::vector<FleetSession> s = {{"int8_0", 0, DType::kQ8},
                                              {"fp32_0", 0, DType::kF32},
                                              {"int8_1", 1, DType::kQ8},
                                              {"fp32_1", 1, DType::kF32}};
  return s;
}

PassOutputs fleet_pass(uint64_t stream_seed, const std::string& dir, bool traced,
                       RunData& run) {
  const std::vector<FleetSession>& sessions = fleet_sessions();
  const runtime::FleetConfig fc_int8 = fleet_config(DType::kQ8, dir);
  const runtime::FleetConfig fc_fp32 = fleet_config(DType::kF32, dir);
  auto config_of = [&](const FleetSession& s) -> const runtime::FleetConfig& {
    return s.cache_dtype == DType::kQ8 ? fc_int8 : fc_fp32;
  };

  // -- set-up: world + data, learners (init_buffer_from runs inside
  // make_learner), pre-training, admission.
  const double s0 = now_s();
  const data::ProceduralImageWorld world(fc_int8.spec, kFixedSeed);
  const data::Dataset labeled =
      world.make_labeled_set(fc_int8.labeled_per_class, kFixedSeed + 1);
  const data::Dataset test = world.make_test_set(kTestPerClass, kFixedSeed + 2);
  const double s1 = now_s();
  std::vector<runtime::LearnerHandle> handles;
  for (const FleetSession& s : sessions)
    handles.push_back(
        runtime::Fleet::make_learner(config_of(s), world, s.twin_index));
  const double s2 = now_s();
  for (size_t i = 0; i < sessions.size(); ++i)
    pretrain(handles[i].learner->model(), labeled,
             kFixedSeed + 4 + static_cast<uint64_t>(sessions[i].twin_index));
  const double s3 = now_s();
  runtime::SessionManager manager(fc_int8.runtime);
  std::vector<TimedLearner*> timed;
  std::vector<std::string> names;
  for (size_t i = 0; i < sessions.size(); ++i) {
    auto t = std::make_unique<TimedLearner>(std::move(handles[i].learner));
    timed.push_back(t.get());
    names.push_back(sessions[i].name);
    manager.add_session(sessions[i].name, std::move(t),
                        std::move(handles[i].keepalive));
  }
  const double s4 = now_s();
  run.world_s.push_back(s1 - s0);
  run.init_buffer_s.push_back(s2 - s1);
  run.pretrain_s.push_back(s3 - s2);
  run.setup_s.push_back(s4 - s0);

  // -- open loop.
  std::vector<std::unique_ptr<data::TemporalStream>> streams;
  std::vector<std::vector<std::vector<int64_t>>> true_labels(sessions.size());
  for (const FleetSession& s : sessions)
    streams.push_back(std::make_unique<data::TemporalStream>(
        world, config_of(s).stream,
        stream_seed + static_cast<uint64_t>(s.twin_index)));
  const double cpu0 = cpu_seconds();
  const core::MemStatsSnapshot mem0 = core::memstats();
  data::Segment seg;
  const perfbench::OpenLoopResult ol = perfbench::run_open_loop(
      manager, names, kFleetRatePerS, kFleetPerSession, [&](size_t s) {
        if (!streams[s]->next(seg)) throw std::runtime_error("stream ended early");
        true_labels[s].push_back(seg.true_labels);
        return std::move(seg.images);
      });
  double last_end = ol.first_due;
  for (TimedLearner* t : timed)
    for (const perfbench::CallRecord& c : t->calls())
      last_end = std::max(last_end, c.end);
  run.stream_wall_s += last_end - ol.first_due;
  run.stream_cpu_s += cpu_seconds() - cpu0;
  if (run.passes > 0) run.hot_allocs += (core::memstats() - mem0).hot_allocs();
  run.next_s.insert(run.next_s.end(), ol.make_s.begin(), ol.make_s.end());
  run.lag_s.insert(run.lag_s.end(), ol.lag.begin(), ol.lag.end());

  // -- account for every segment: shed, thrown, guard-skipped and stranded
  // segments all count as failed.
  const int64_t offered = kFleetPerSession * static_cast<int64_t>(sessions.size());
  run.attempted += offered;
  run.stream_segments += offered;
  run.failed += ol.rejected;
  LabelTally labels;
  for (size_t i = 0; i < sessions.size(); ++i) {
    const runtime::SessionStatus st = manager.status(names[i]);
    const std::vector<perfbench::CallRecord>& calls = timed[i]->calls();
    const int64_t submitted = static_cast<int64_t>(ol.due[i].size());
    const int64_t stranded = submitted - st.segments_processed;
    run.failed += st.queue.shed + st.segments_failed + std::max<int64_t>(0, stranded);
    run.queue_depth_max = std::max(run.queue_depth_max, st.queue.max_depth);
    if (st.queue.shed > 0 || stranded != 0 || ol.rejected > 0)
      run.fail(names[i] + ": segments lost (shed " + std::to_string(st.queue.shed) +
               ", stranded " + std::to_string(stranded) + ")");
    if (st.state != runtime::SessionState::kActive)
      run.fail(names[i] + " was quarantined: " + st.last_error);
    if (st.checkpoints_written != kFleetPerSession / kCheckpointEvery)
      run.fail(names[i] + ": wrote " + std::to_string(st.checkpoints_written) +
               " checkpoints");

    std::vector<double> starts, ends;
    for (const perfbench::CallRecord& c : calls) {
      starts.push_back(c.start);
      ends.push_back(c.end);
    }
    const std::vector<SegmentTiming> paired =
        perfbench::pair_timings(ol.due[i], starts, ends, kBeta);
    if (static_cast<int64_t>(paired.size()) != submitted ||
        paired.size() != calls.size()) {
      run.fail(names[i] + ": observe_segment calls do not match arrivals");
      continue;
    }
    for (size_t k = 0; k < paired.size(); ++k) {
      run.timings.push_back(paired[k]);
      run.timing_traced.push_back(traced);
      if (!paired[k].retrain)
        (sessions[i].cache_dtype == DType::kQ8 ? run.int8_service_s
                                               : run.fp32_service_s)
            .push_back(paired[k].service());
      run.note_segment(calls[k].pseudo_labels, true_labels[i][k],
                       calls[k].retained, calls[k].active_classes, labels);
    }
    for (const perfbench::SaveRecord& r : timed[i]->saves())
      run.save_s.push_back(r.end - r.start);
  }

  // -- outputs: accuracy, final state digests, int8 checkpoint round trip.
  PassOutputs out;
  out.sessions = names;
  out.pseudo_acc_pct = pct(labels.correct, labels.total);
  double acc_sum = 0.0;
  int64_t logical = 0, stored = 0;
  for (size_t i = 0; i < sessions.size(); ++i) {
    core::OnDeviceLearner& l = manager.learner(names[i]);
    acc_sum += eval::accuracy(l.model(), test);
    out.state_bytes += l.memory_bytes();
    if (sessions[i].cache_dtype == DType::kQ8) {
      logical += l.cache_logical_bytes();
      stored += l.cache_stored_bytes();
    }
    const std::string saved = dir + "/" + names[i] + ".final";
    l.save_state(saved);
    const std::string bytes = read_file(saved);
    out.digests.push_back(fnv1a(bytes));
    if (i == 0) run.checkpoint_bytes = static_cast<int64_t>(bytes.size());

    // Re-quantizing decoded int8 model parameters can move a block's scale,
    // so the first load->save may differ from the original checkpoint (the
    // differing bytes are reported); it must keep its size, and a second
    // load->save through another twin must reproduce it byte for byte.
    std::vector<std::string> resaved;
    for (const char* suffix : {".resaved1", ".resaved2"}) {
      runtime::LearnerHandle twin = runtime::Fleet::make_learner(
          config_of(sessions[i]), world, sessions[i].twin_index);
      twin.learner->set_checkpoint_dtype(fc_int8.runtime.checkpoint_dtype);
      resaved.push_back(load_and_resave(
          *twin.learner, resaved.empty() ? saved : saved + ".resaved1",
          saved + suffix, run));
    }
    run.roundtrip_diff_bytes += differing_bytes(bytes, resaved[0]);
    if (resaved[0].size() != bytes.size() || resaved[0] != resaved[1])
      run.fail(names[i] + ": int8 checkpoint save->load->save is not stable");
  }
  out.accuracy_pct = acc_sum / static_cast<double>(sessions.size());
  run.compression_x = stored > 0 ? static_cast<double>(logical) /
                                       static_cast<double>(stored)
                                 : NAN;
  return out;
}

// ---- metrics -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double p90_or_fail(const std::vector<double>& v, const std::string& what,
                   RunData& run) {
  const std::optional<double> p = perfbench::tail_percentile(v, 0.9);
  if (!p) {
    run.fail(what + ": p90 refused, " + std::to_string(v.size()) +
             " samples (needs " +
             std::to_string(perfbench::min_samples_for(0.9)) + ")");
    return NAN;
  }
  return *p;
}

std::vector<double> ms(const std::vector<double>& seconds) {
  std::vector<double> out;
  out.reserve(seconds.size());
  for (double x : seconds) out.push_back(x * 1e3);
  return out;
}

std::vector<Metric> end_to_end(RunData& run) {
  const perfbench::SplitLatencies split = perfbench::split_by_beta(run.timings);
  const std::vector<double> plain = ms(split.plain);
  std::printf("samples: plain=%zu retrain=%zu setups=%zu passes=%lld\n",
              plain.size(), split.retrain.size(), run.setup_s.size(),
              static_cast<long long>(run.passes));
  double rss_kb = NAN;
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) rss_kb = static_cast<double>(ru.ru_maxrss);
  return {
      {"setup_s", perfbench::median(run.setup_s), "s"},
      {"segment_ms_p50", perfbench::median(plain), "ms"},
      {"segment_ms_p90", p90_or_fail(plain, "segment_ms", run), "ms"},
      {"update_ms_p50", perfbench::median(ms(split.retrain)), "ms"},
      {"segments_per_s",
       static_cast<double>(run.stream_segments) / run.stream_wall_s, "1/s"},
      {"accuracy_pct", run.mean_of(&PassOutputs::accuracy_pct), "%"},
      {"pseudo_label_acc_pct", run.mean_of(&PassOutputs::pseudo_acc_pct), "%"},
      {"state_bytes",
       run.by_sub_seed.empty() ? NAN
                               : static_cast<double>(run.by_sub_seed[0].state_bytes),
       "bytes"},
      {"peak_rss_mb", rss_kb / 1024.0, "MB"},
  };
}

std::vector<Metric> per_layer(RunData& run, int threads, bool fleet,
                              double steal_pct) {
  const telem::Snapshot snap = telem::snapshot();
  auto span_ns = [&](const char* name) -> int64_t {
    const telem::SpanAggregate* s = snap.span(name);
    return s != nullptr ? s->total_ns : 0;
  };
  // Shares are of learner/segment, the whole of observe_segment; each
  // layer's span includes its children (nn spans include their GEMMs), and
  // deco.other_share_pct is the learner's own time outside its three phases.
  const int64_t seg_ns = span_ns("learner/segment");
  const int64_t pl_ns = span_ns("learner/pseudo_label");
  const int64_t cond_ns = span_ns("learner/condense");
  const int64_t upd_ns = span_ns("learner/model_update");
  const int64_t gemm_ns = span_ns("tensor/gemm");
  const int64_t traced_segments = snap.counter_value("learner/segments");
  const int64_t iterations = snap.counter_value("condense/iterations");
  auto share = [&](int64_t ns) { return seg_ns > 0 ? pct(ns, seg_ns) : 0.0; };
  auto per_segment = [&](int64_t count) {
    return traced_segments > 0 ? static_cast<double>(count) /
                                     static_cast<double>(traced_segments)
                               : 0.0;
  };

  std::vector<double> svc_on, svc_off, wait, plain_svc;
  for (size_t i = 0; i < run.timings.size(); ++i) {
    const SegmentTiming& t = run.timings[i];
    wait.push_back(t.queue_wait() * 1e3);
    if (t.retrain) continue;
    plain_svc.push_back(t.service() * 1e3);
    (run.timing_traced[i] ? svc_on : svc_off).push_back(t.service());
  }
  const double overhead =
      100.0 * (perfbench::median(svc_on) / perfbench::median(svc_off) - 1.0);

  // Fork-join rounds: a round holds min(threads, sessions) threads until its
  // slowest turn ends; idle is the part of that not spent in turns.
  const double width =
      static_cast<double>(std::min<size_t>(threads, fleet_sessions().size()));
  const int64_t round_ns = span_ns("runtime/round");
  const double barrier_idle =
      fleet && round_ns > 0
          ? 100.0 * (1.0 - static_cast<double>(span_ns("runtime/turn")) /
                               (static_cast<double>(round_ns) * width))
          : 0.0;
  const double int8_overhead =
      run.int8_service_s.empty() || run.fp32_service_s.empty()
          ? 0.0
          : 100.0 * (perfbench::median(run.int8_service_s) /
                         perfbench::median(run.fp32_service_s) -
                     1.0);
  double max_lag = 0.0;
  for (double l : run.lag_s) max_lag = std::max(max_lag, l);

  return {
      {"condense.share_pct", share(cond_ns), "%"},
      {"condense.ms_per_iteration",
       iterations > 0 ? 1e-6 * static_cast<double>(cond_ns) / static_cast<double>(iterations)
                      : 0.0,
       "ms"},
      {"condense.matcher_passes", per_segment(snap.counter_value("condense/matcher_passes")), "count"},
      {"nn.forward_share_pct", share(span_ns("nn/forward")), "%"},
      {"nn.backward_share_pct", share(span_ns("nn/backward")), "%"},
      {"nn.embed_share_pct", share(span_ns("nn/embed")), "%"},
      {"tensor.gemm_share_pct", share(gemm_ns), "%"},
      {"tensor.gemm_gflops",
       gemm_ns > 0 ? static_cast<double>(snap.counter_value("gemm/flops")) /
                         static_cast<double>(gemm_ns)
                   : 0.0,
       "GFLOP/s"},
      {"tensor.gemm_calls_per_segment", per_segment(snap.counter_value("gemm/calls")), "count"},
      {"deco.pseudo_label_share_pct", share(pl_ns), "%"},
      {"deco.model_update_share_pct", share(upd_ns), "%"},
      {"deco.other_share_pct", share(seg_ns - pl_ns - cond_ns - upd_ns), "%"},
      {"deco.retained_pct", pct(run.retained, run.frames), "%"},
      {"core.cpu_util_pct",
       100.0 * run.stream_cpu_s / (run.stream_wall_s * static_cast<double>(threads)), "%"},
      {"core.pool_chunks_per_segment", per_segment(snap.counter_value("pool/chunks")), "count"},
      {"core.hot_allocs", static_cast<double>(run.hot_allocs), "count"},
      {"runtime.queue_wait_ms_p50", perfbench::median(wait), "ms"},
      {"runtime.queue_wait_ms_p90", p90_or_fail(wait, "queue_wait_ms", run), "ms"},
      {"runtime.service_ms_p50", perfbench::median(plain_svc), "ms"},
      {"runtime.queue_depth_max", static_cast<double>(run.queue_depth_max), "count"},
      {"runtime.barrier_idle_pct", barrier_idle, "%"},
      {"runtime.generator_lag_ms_max", max_lag * 1e3, "ms"},
      {"dtype.int8_service_overhead_pct", int8_overhead, "%"},
      {"dtype.compression_x", run.compression_x, "x"},
      {"checkpoint.save_ms_p50", perfbench::median(ms(run.save_s)), "ms"},
      {"checkpoint.bytes", static_cast<double>(run.checkpoint_bytes), "bytes"},
      {"checkpoint.roundtrip_diff_bytes",
       static_cast<double>(run.roundtrip_diff_bytes) /
           static_cast<double>(std::max<int64_t>(1, run.passes)),
       "bytes"},
      {"checkpoint.load_ms_p50", perfbench::median(ms(run.load_s)), "ms"},
      {"data.next_ms_p50", perfbench::median(ms(run.next_s)), "ms"},
      {"setup.world_s", perfbench::median(run.world_s), "s"},
      {"setup.pretrain_s", perfbench::median(run.pretrain_s), "s"},
      {"setup.init_buffer_s", perfbench::median(run.init_buffer_s), "s"},
      {"trace.overhead_pct", overhead, "%"},
      {"host.steal_pct", steal_pct, "%"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "deco_perfbench: %s\n", e.what());
    return 2;
  }
  const bool fleet = args.workload == "fleet_open";
  StreamShape shape{};
  if (args.workload == "paper_stream") {
    shape = paper_stream();
  } else if (args.workload == "hires_stream") {
    shape = hires_stream();
  } else if (!fleet) {
    std::fprintf(stderr, "deco_perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const int threads = fleet ? kFleetThreads : shape.threads;
  const int64_t distinct = fleet ? kFleetDistinctSeeds : shape.distinct_seeds;
  core::set_num_threads(threads);
  telem::set_enabled(false);
  telem::reset();

  RunData run;
  const auto steal0 = steal_jiffies();
  try {
    ScratchDir dir(".bench_build/run-" + args.workload + "-" +
                   std::to_string(static_cast<long long>(getpid())));
    // Untraced: sub-seeds 0..distinct-1, then repeats of them. Traced: each
    // sub-seed untraced then traced. Another pass starts while it should end
    // within --seconds (judged by the last pass), and regardless until the
    // run has its minimum passes and the plain segments its p90 needs. The
    // 150 s cap keeps a much slower commit under the 180 s limit.
    const double t0 = now_s();
    const int64_t min_plain = perfbench::min_samples_for(0.9);
    const int64_t min_passes = args.trace ? 2 : distinct;
    double last_pass_s = 0.0;
    for (int64_t pass = 0; run.correct; ++pass) {
      const double elapsed = now_s() - t0;
      int64_t plain = 0;
      for (const SegmentTiming& t : run.timings) plain += !t.retrain;
      const bool need_more = plain < min_plain || pass < min_passes;
      if (elapsed > 150.0 || (!need_more && elapsed + last_pass_s > args.seconds))
        break;
      const int64_t sub = args.trace ? (pass / 2) % distinct : pass % distinct;
      const bool traced = args.trace && pass % 2 == 1;
      const uint64_t seed = sub_seed(args.seed, sub);
      telem::set_enabled(traced);
      PassOutputs out = fleet ? fleet_pass(seed, dir.path, traced, run)
                              : stream_pass(shape, seed, dir.path, traced, run);
      telem::set_enabled(false);
      for (size_t i = 0; i < out.sessions.size(); ++i)
        std::printf("digest stream_seed=%llu %s %s\n", static_cast<unsigned long long>(seed),
                    out.sessions[i].c_str(), hex(out.digests[i]).c_str());
      run.record(sub, std::move(out));
      last_pass_s = now_s() - t0 - elapsed;
    }
  } catch (const std::exception& e) {
    run.fail(std::string("exception: ") + e.what());
  }
  const auto steal1 = steal_jiffies();
  const double dtotal = steal1.second - steal0.second;
  const double steal_pct = dtotal > 0.0 ? 100.0 * (steal1.first - steal0.first) / dtotal : 0.0;

  std::vector<Metric> metrics = args.trace ? per_layer(run, threads, fleet, steal_pct)
                                           : end_to_end(run);
  std::printf("segments by active classes 0/1/2/3+: %lld/%lld/%lld/%lld\n",
              static_cast<long long>(run.active_hist[0]),
              static_cast<long long>(run.active_hist[1]),
              static_cast<long long>(run.active_hist[2]),
              static_cast<long long>(run.active_hist[3]));
  std::printf("host: nproc=%u threads=%d seed=%llu workload=%s trace=%d "
              "host.steal_pct=%.4f\n",
              std::thread::hardware_concurrency(), threads,
              static_cast<unsigned long long>(args.seed), args.workload.c_str(),
              args.trace ? 1 : 0, steal_pct);
  for (const Metric& m : metrics)
    if (!std::isfinite(m.value)) run.fail("metric " + m.name + " is not finite");
  for (const std::string& e : run.errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (run.correct ? "true" : "false")
     << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
    js << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
  return run.correct && run.attempted > 0 ? 0 : 1;
}
