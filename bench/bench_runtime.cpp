// Multi-session runtime throughput sweep.
//
// Runs the Fleet harness (SessionManager + pump thread + per-session bounded
// queues) over 1/2/4/8 concurrent sessions and reports aggregate
// segments/second, plus a direct single-learner loop as the no-runtime
// baseline so the manager's overhead is visible. Numbers are informational —
// the binary only fails when a session loses segments (a functional bug),
// never on wall-clock, so CI stays immune to noisy-neighbor machines.
//
// Writes BENCH_runtime.json next to the binary (uploaded by the perf-smoke CI
// leg alongside BENCH_telemetry.json and BENCH_kernels.json).
//
// Knobs: DECO_SEGMENTS (stream length per session), DECO_NUM_THREADS.
#include <iostream>
#include <vector>

#include "bench_io.h"
#include "deco/core/thread_pool.h"
#include "deco/eval/report.h"
#include "deco/runtime/fleet.h"

namespace {

using deco::bench::now_seconds;
using deco::runtime::Fleet;
using deco::runtime::FleetConfig;
using deco::runtime::FleetResult;
using deco::runtime::LearnerHandle;

FleetConfig bench_config(int64_t sessions, int64_t segments) {
  FleetConfig fc;
  fc.sessions = sessions;
  fc.spec = deco::data::core50_spec();
  fc.stream.stc = 16;
  fc.stream.segment_size = 16;
  fc.stream.total_segments = segments;
  fc.deco.ipc = 2;
  fc.deco.beta = 4;
  fc.deco.model_update_epochs = 2;
  fc.deco.train_batch = 16;
  fc.deco.condenser.iterations = 2;
  fc.labeled_per_class = 2;
  fc.model_width = 16;
  fc.model_depth = 2;
  fc.runtime.queue_depth = 4;
  return fc;
}

/// The no-runtime reference: one learner, one stream, a plain loop.
double direct_single_learner_seconds(const FleetConfig& fc) {
  deco::data::ProceduralImageWorld world(fc.spec, Fleet::world_seed(fc));
  LearnerHandle h = Fleet::make_learner(fc, world, 0);
  deco::data::TemporalStream stream(world, fc.stream,
                                    Fleet::stream_seed(fc, 0));
  deco::data::Segment seg;
  const double t0 = now_seconds();
  while (stream.next(seg)) h.learner->observe_segment(seg.images);
  return now_seconds() - t0;
}

struct SweepPoint {
  int64_t sessions;
  int64_t segments_processed;
  double seconds;
  double segments_per_second;
};

}  // namespace

int main() {
  const int64_t segments = deco::eval::env_int("DECO_SEGMENTS", 6, 1);
  std::cout << "# bench_runtime\n"
            << "threads=" << deco::core::num_threads()
            << " segments_per_session=" << segments << "\n\n";

  const double direct_s = direct_single_learner_seconds(bench_config(1, segments));
  const double direct_rate = static_cast<double>(segments) / direct_s;
  std::cout << "direct single learner (no runtime): " << direct_s << " s, "
            << direct_rate << " seg/s\n\n";

  int failures = 0;
  std::vector<SweepPoint> sweep;
  std::cout << "sessions  segments  seconds  seg/s\n";
  for (const int64_t sessions : {1, 2, 4, 8}) {
    Fleet fleet(bench_config(sessions, segments));
    const FleetResult r = fleet.run();
    const int64_t expected = sessions * segments;
    if (r.segments_processed != expected) {
      std::cout << "FAIL: " << sessions << " sessions processed "
                << r.segments_processed << " segments, expected " << expected
                << "\n";
      ++failures;
    }
    sweep.push_back({sessions, r.segments_processed, r.seconds,
                     r.segments_per_second});
    std::cout << sessions << "  " << r.segments_processed << "  " << r.seconds
              << "  " << r.segments_per_second << "\n";
  }

  // Overhead of the runtime itself at 1 session (queue + scheduler + pump
  // hand-off, amortized per segment). Informational.
  const double overhead_pct =
      (sweep[0].seconds - direct_s) / direct_s * 100.0;
  std::cout << "\nruntime overhead at 1 session: " << overhead_pct << "%\n";

  deco::bench::JsonWriter js;
  js.begin_object()
      .key("threads").value(deco::core::num_threads())
      .key("segments_per_session").value(segments)
      .key("direct_seconds").value(direct_s)
      .key("runtime_overhead_pct").value(overhead_pct)
      .key("sweep").begin_array();
  for (const SweepPoint& p : sweep) {
    js.begin_object()
        .key("sessions").value(p.sessions)
        .key("segments_processed").value(p.segments_processed)
        .key("seconds").value(p.seconds)
        .key("segments_per_second").value(p.segments_per_second)
        .end_object();
  }
  js.end_array().end_object();
  if (!js.write_file("BENCH_runtime.json")) ++failures;

  std::cout << (failures == 0 ? "bench-runtime: PASS" : "bench-runtime: FAIL")
            << "\n";
  return failures;
}
