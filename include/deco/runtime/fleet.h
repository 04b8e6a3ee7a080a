// Fleet: a canned multi-session deployment for demos, benches and serving.
//
// SessionManager is deliberately agnostic about where learners and segments
// come from. Fleet supplies the standard wiring used by `deco_cli serve`,
// `deco_cli bench` and examples/fleet_serve: N DecoLearner sessions over one
// procedural world, each with its own model, rng lineage and
// temporally-correlated stream, replayed through the manager's queues.
//
// Construction of session i's learner and stream is a pure function of
// (FleetConfig, i) — exposed as make_learner()/stream_seed() — so a
// sequential reference run can build bit-identical twins of every session
// and memcmp the results (tests/runtime_stress_test.cpp does exactly this).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "deco/data/stream.h"
#include "deco/data/world.h"
#include "deco/runtime/session.h"
#include "deco/runtime/session_manager.h"

namespace deco::runtime {

struct FleetConfig {
  int64_t sessions = 4;
  data::DatasetSpec spec;          ///< shared procedural world
  data::StreamConfig stream;       ///< per-session stream shape
  core::DecoConfig deco;           ///< per-session learner hyper-parameters
  RuntimeConfig runtime;
  int64_t labeled_per_class = 4;   ///< warm-start buffer initialization size
  int64_t model_width = 16;
  int64_t model_depth = 2;
  uint64_t seed = 1;

  void validate() const;
};

/// Outcome of one Fleet::run(): wall-clock throughput plus the final
/// per-session statuses.
struct FleetResult {
  double seconds = 0.0;
  int64_t segments_processed = 0;
  double segments_per_second = 0.0;
  std::vector<SessionStatus> sessions;
};

class Fleet {
 public:
  explicit Fleet(FleetConfig config);

  /// "session0", "session1", ...
  static std::string session_name(int64_t i);
  /// Seed of the shared procedural world.
  static uint64_t world_seed(const FleetConfig& config);
  /// Seed of session i's TemporalStream.
  static uint64_t stream_seed(const FleetConfig& config, int64_t i);
  /// Builds session i's learner identically to the Fleet constructor — the
  /// hook sequential reference runs use to create bit-identical twins.
  static LearnerHandle make_learner(const FleetConfig& config,
                                    const data::ProceduralImageWorld& world,
                                    int64_t i);

  /// Replays every session's stream through the manager (round-robin
  /// submission, pump thread running) until all streams are exhausted and
  /// drained, then reports throughput.
  FleetResult run();

  SessionManager& manager() { return manager_; }
  const data::ProceduralImageWorld& world() const { return world_; }
  const FleetConfig& config() const { return config_; }

 private:
  FleetConfig config_;
  data::ProceduralImageWorld world_;
  SessionManager manager_;
};

}  // namespace deco::runtime
