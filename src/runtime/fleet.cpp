#include "deco/runtime/fleet.h"

#include <chrono>
#include <utility>

#include "deco/tensor/check.h"

namespace deco::runtime {

namespace {
double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

void FleetConfig::validate() const {
  DECO_CHECK(sessions >= 1, "FleetConfig: sessions must be >= 1");
  DECO_CHECK(labeled_per_class >= 1,
             "FleetConfig: labeled_per_class must be >= 1");
  stream.validate();
  deco.validate();
  runtime.validate();
}

std::string Fleet::session_name(int64_t i) {
  return "session" + std::to_string(i);
}

uint64_t Fleet::world_seed(const FleetConfig& config) {
  return config.seed * 7919 + 17;
}

uint64_t Fleet::stream_seed(const FleetConfig& config, int64_t i) {
  return config.seed + 100 + static_cast<uint64_t>(i);
}

LearnerHandle Fleet::make_learner(const FleetConfig& config,
                                  const data::ProceduralImageWorld& world,
                                  int64_t i) {
  // Session i's model and learner get their own seed lineage, so sessions are
  // numerically independent and each is reproducible in isolation. Fleet
  // sessions start from the untrained model.
  const uint64_t si = static_cast<uint64_t>(i);
  SessionRecipe r;
  r.model_width = config.model_width;
  r.model_depth = config.model_depth;
  r.ipc = config.deco.ipc;
  r.deco = config.deco;
  r.labeled_per_class = config.labeled_per_class;
  r.labeled_seed = config.seed + 1;
  r.model_seed = config.seed * 0x9E37 + si * 1315423911ull + 0xC0FFEE;
  r.learner_seed = config.seed + 1000 + si;
  r.condenser_seed = r.learner_seed ^ 0xD3C0;
  return build_session(r, world);
}

Fleet::Fleet(FleetConfig config)
    : config_(std::move(config)),
      world_(config_.spec, world_seed(config_)),
      manager_(config_.runtime) {
  config_.validate();
  for (int64_t i = 0; i < config_.sessions; ++i) {
    LearnerHandle h = make_learner(config_, world_, i);
    manager_.add_session(session_name(i), std::move(h.learner),
                         std::move(h.keepalive));
  }
}

FleetResult Fleet::run() {
  const double t0 = now_seconds();
  manager_.start();

  // One stream per session, submitted round-robin so every queue fills at the
  // same rate (the realistic many-sensors arrival pattern). Under kBlock a
  // full queue throttles this producer loop — backpressure, not loss.
  std::vector<std::unique_ptr<data::TemporalStream>> streams;
  streams.reserve(static_cast<size_t>(config_.sessions));
  for (int64_t i = 0; i < config_.sessions; ++i)
    streams.push_back(std::make_unique<data::TemporalStream>(
        world_, config_.stream, stream_seed(config_, i)));

  bool any = true;
  data::Segment seg;
  while (any) {
    any = false;
    for (int64_t i = 0; i < config_.sessions; ++i) {
      if (!streams[static_cast<size_t>(i)]->next(seg)) continue;
      any = true;
      manager_.submit(session_name(i), std::move(seg.images));
    }
  }
  manager_.stop();

  FleetResult result;
  result.seconds = now_seconds() - t0;
  result.sessions = manager_.statuses();
  for (const SessionStatus& s : result.sessions)
    result.segments_processed += s.segments_processed;
  result.segments_per_second =
      result.seconds > 0.0
          ? static_cast<double>(result.segments_processed) / result.seconds
          : 0.0;
  return result;
}

}  // namespace deco::runtime
