#include "deco/runtime/session_manager.h"

#include <algorithm>
#include <utility>

#include "deco/core/telemetry.h"
#include "deco/core/thread_pool.h"
#include "deco/tensor/check.h"

namespace deco::runtime {

namespace telem = core::telemetry;

std::string session_state_name(SessionState s) {
  return s == SessionState::kActive ? "active" : "quarantined";
}

SessionManager::SessionManager(RuntimeConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

SessionManager::~SessionManager() { stop(); }

void SessionManager::add_session(const std::string& name,
                                 std::unique_ptr<core::OnDeviceLearner> learner,
                                 std::shared_ptr<void> keepalive) {
  DECO_CHECK(learner != nullptr, "add_session: learner must not be null");
  DECO_CHECK(!name.empty(), "add_session: session name must not be empty");
  // The runtime's checkpoint dtype policy applies to every hosted learner;
  // fp32 is the default and leaves save_state bit-exact.
  learner->set_checkpoint_dtype(config_.checkpoint_dtype);
  // memory_bytes() reports the cache as *stored* (post-quantization), so a
  // quantized fleet admits more sessions under the same pool budget.
  const int64_t bytes = learner->memory_bytes();

  std::lock_guard<std::mutex> lock(sessions_mutex_);
  DECO_CHECK(find(name) == nullptr,
             "add_session: session '" + name + "' already exists");
  int64_t fleet_bytes = bytes;
  for (const auto& s : sessions_) fleet_bytes += s->admitted_bytes;
  const int64_t budget = config_.pool_budget_bytes();
  DECO_CHECK(fleet_bytes <= budget,
             "add_session: admitting '" + name + "' (" +
                 std::to_string(bytes) + " B) would put the fleet at " +
                 std::to_string(fleet_bytes) + " B, over the " +
                 std::to_string(budget) + " B runtime memory budget");

  auto s = std::make_unique<Session>();
  s->name = name;
  s->learner = std::move(learner);
  s->keepalive = std::move(keepalive);
  s->queue = std::make_unique<SegmentQueue>(config_.queue_depth,
                                            config_.overflow);
  s->admitted_bytes = bytes;
  if (config_.checkpoint_every > 0 && s->learner->supports_state())
    s->checkpoint_path = config_.checkpoint_dir + "/" + name + ".ckpt";
  sessions_.push_back(std::move(s));

  static telem::Gauge& g = telem::gauge("runtime/fleet_bytes");
  g.set(fleet_bytes);
}

SessionManager::Session* SessionManager::find(const std::string& name) const {
  for (const auto& s : sessions_)
    if (s->name == name) return s.get();
  return nullptr;
}

SessionManager::Session& SessionManager::find_or_throw(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  Session* s = find(name);
  DECO_CHECK(s != nullptr, "unknown session '" + name + "'");
  return *s;
}

bool SessionManager::submit(const std::string& name, Tensor segment) {
  Session& s = find_or_throw(name);
  // Push outside sessions_mutex_: a kBlock push may wait for the scheduler,
  // and the scheduler must not need the registry lock to make progress.
  const bool accepted = s.queue->push(std::move(segment));
  if (accepted) {
    std::lock_guard<std::mutex> lock(pump_mutex_);
    pump_pending_ = true;
    pump_cv_.notify_one();
  }
  return accepted;
}

void SessionManager::close_all() {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  for (const auto& s : sessions_) s->queue->close();
}

int64_t SessionManager::process_turn(Session& s, int64_t budget) {
  DECO_TRACE_SCOPE("runtime/turn");
  static telem::Counter& processed_c =
      telem::counter("runtime/segments_processed");
  static telem::Counter& failed_c = telem::counter("runtime/segments_failed");
  static telem::Counter& quarantined_c =
      telem::counter("runtime/sessions_quarantined");
  static telem::Counter& checkpoints_c =
      telem::counter("runtime/checkpoints_written");

  int64_t done = 0;
  Tensor segment;
  while (done < budget && s.queue->try_pop(segment)) {
    bool failed = false;
    std::string error;
    core::SegmentReport report;
    try {
      report = s.learner->observe_segment(segment);
      if (report.segment_skipped != 0) {
        failed = true;
        error = "segment skipped by the numeric guard";
      }
    } catch (const std::exception& e) {
      failed = true;
      error = e.what();
    }
    ++done;
    processed_c.add(1);

    bool checkpoint_due = false;
    {
      std::lock_guard<std::mutex> lock(s.m);
      ++s.segments_processed;
      if (config_.keep_reports) s.reports.push_back(report);
      if (failed) {
        ++s.segments_failed;
        ++s.consecutive_failures;
        s.last_error = error;
        failed_c.add(1);
        if (config_.quarantine_after > 0 &&
            s.consecutive_failures >= config_.quarantine_after) {
          s.state = SessionState::kQuarantined;
          quarantined_c.add(1);
        }
      } else {
        s.consecutive_failures = 0;
      }
      checkpoint_due = !s.checkpoint_path.empty() &&
                       s.state == SessionState::kActive &&
                       s.segments_processed % config_.checkpoint_every == 0;
    }

    if (checkpoint_due) {
      // save_state is atomic (temp + rename) and per-session paths are
      // distinct, so concurrent turns never collide on a file.
      try {
        s.learner->save_state(s.checkpoint_path);
        std::lock_guard<std::mutex> lock(s.m);
        ++s.checkpoints_written;
        checkpoints_c.add(1);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(s.m);
        s.last_error = std::string("checkpoint failed: ") + e.what();
      }
    }

    {
      std::lock_guard<std::mutex> lock(s.m);
      if (s.state == SessionState::kQuarantined) {
        s.queue->close();
        break;
      }
    }
  }
  return done;
}

int64_t SessionManager::run_round() {
  DECO_TRACE_SCOPE("runtime/round");
  static telem::Counter& rounds_c = telem::counter("runtime/rounds");

  // Snapshot this round's turns under the registry lock: each active session
  // with queued work gets at most ONE turn, sized by its DRR deficit. The
  // session's deficit and queue occupancy can only be touched by this
  // scheduler (turns run below, after the lock is released), so the snapshot
  // stays valid — except that producers may push more segments, which simply
  // wait for the next round.
  struct Turn {
    Session* session;
    int64_t budget;
  };
  std::vector<Turn> turns;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    const int64_t n = static_cast<int64_t>(sessions_.size());
    if (n == 0) return 0;
    cursor_ %= n;
    for (int64_t i = 0; i < n; ++i) {
      Session& s = *sessions_[static_cast<size_t>((cursor_ + i) % n)];
      {
        std::lock_guard<std::mutex> slock(s.m);
        if (s.state != SessionState::kActive) continue;
      }
      const int64_t queued = s.queue->size();
      if (queued == 0) {
        // An empty queue forfeits banked credit — DRR's anti-burst rule.
        s.deficit = 0;
        continue;
      }
      s.deficit = std::min(s.deficit + config_.quantum, config_.max_deficit);
      turns.push_back({&s, std::min(s.deficit, queued)});
    }
    cursor_ = (cursor_ + 1) % n;
  }
  if (turns.empty()) return 0;
  rounds_c.add(1);

  // One pool chunk per session turn; the barrier in run() ends the round.
  // Nested kernel parallelism inside observe_segment runs inline on the
  // worker, so the fleet never oversubscribes DECO_NUM_THREADS.
  std::vector<int64_t> processed(turns.size(), 0);
  core::global_pool().run(
      static_cast<int64_t>(turns.size()), [&](int64_t t) {
        Turn& turn = turns[static_cast<size_t>(t)];
        processed[static_cast<size_t>(t)] =
            process_turn(*turn.session, turn.budget);
      });

  int64_t total = 0;
  for (size_t t = 0; t < turns.size(); ++t) {
    turns[t].session->deficit -= processed[t];
    total += processed[t];
  }
  return total;
}

void SessionManager::drain() {
  while (run_round() > 0) {
  }
}

void SessionManager::start() {
  std::lock_guard<std::mutex> lock(pump_mutex_);
  DECO_CHECK(!pump_running_, "SessionManager: pump already running");
  pump_stop_ = false;
  pump_pending_ = false;
  pump_running_ = true;
  pump_ = std::thread([this] { pump_loop(); });
}

void SessionManager::stop() {
  bool was_running;
  {
    std::lock_guard<std::mutex> lock(pump_mutex_);
    was_running = pump_running_;
    pump_stop_ = true;
    pump_cv_.notify_one();
  }
  close_all();
  if (was_running) {
    pump_.join();
    std::lock_guard<std::mutex> lock(pump_mutex_);
    pump_running_ = false;
  }
  // The pump may have observed stop before the queues closed; sweep whatever
  // is still queued (now single-threaded, the pump is gone).
  drain();
}

void SessionManager::pump_loop() {
  while (true) {
    if (run_round() > 0) continue;
    std::unique_lock<std::mutex> lock(pump_mutex_);
    if (pump_stop_) break;  // queues are closed; nothing active remained
    pump_cv_.wait(lock, [&] { return pump_pending_ || pump_stop_; });
    pump_pending_ = false;
  }
}

int64_t SessionManager::session_count() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  return static_cast<int64_t>(sessions_.size());
}

SessionStatus SessionManager::status(const std::string& name) const {
  Session& s = find_or_throw(name);
  SessionStatus out;
  out.name = s.name;
  out.memory_bytes = s.admitted_bytes;
  out.checkpoint_path = s.checkpoint_path;
  out.queue = s.queue->stats();
  std::lock_guard<std::mutex> lock(s.m);
  out.state = s.state;
  out.segments_processed = s.segments_processed;
  out.segments_failed = s.segments_failed;
  out.consecutive_failures = s.consecutive_failures;
  out.checkpoints_written = s.checkpoints_written;
  out.last_error = s.last_error;
  return out;
}

std::vector<SessionStatus> SessionManager::statuses() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    names.reserve(sessions_.size());
    for (const auto& s : sessions_) names.push_back(s->name);
  }
  std::vector<SessionStatus> out;
  out.reserve(names.size());
  for (const std::string& n : names) out.push_back(status(n));
  return out;
}

core::OnDeviceLearner& SessionManager::learner(const std::string& name) {
  return *find_or_throw(name).learner;
}

std::vector<core::SegmentReport> SessionManager::reports(
    const std::string& name) const {
  Session& s = find_or_throw(name);
  std::lock_guard<std::mutex> lock(s.m);
  return s.reports;
}

int64_t SessionManager::total_processed() const {
  std::vector<SessionStatus> all = statuses();
  int64_t total = 0;
  for (const SessionStatus& s : all) total += s.segments_processed;
  return total;
}

}  // namespace deco::runtime
