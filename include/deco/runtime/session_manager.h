// Multi-session learner runtime.
//
// A SessionManager hosts N concurrent learner sessions — each an
// OnDeviceLearner with its own rng stream, ingest queue and checkpoint path —
// and dispatches their segment work onto the process-wide core::ThreadPool.
// One pool serves the whole fleet: sessions fan out across pool workers, and
// the tensor kernels *inside* a session run inline on that worker (the pool's
// nested-region rule), so total thread count never exceeds DECO_NUM_THREADS
// no matter how many sessions are live.
//
// Scheduling is deficit round-robin (DRR). Each scheduler round walks the
// active sessions from a rotating cursor; a session's deficit grows by
// `quantum` per round (capped at `max_deficit` so an idle session cannot bank
// unbounded credit) and it may process up to `deficit` queued segments that
// round. Every session therefore gets the same long-run share regardless of
// arrival pattern, and a backlogged session catches up without starving the
// rest.
//
// Determinism. A session is dispatched as AT MOST ONE pool chunk per round,
// and rounds are fork-join barriers — so each session's segments are
// processed strictly serially, in arrival order, exactly as a sequential
// loop would. Combined with the library-wide deterministic-chunking contract
// (thread count never changes numeric results), an N-session concurrent run
// produces per-session models, buffers and reports byte-identical to N
// sequential runs, at any DECO_NUM_THREADS. tests/runtime_stress_test.cpp
// memcmp-proves this.
//
// Fault isolation. A segment failure (a thrown deco::Error, or a guard-
// skipped segment) bumps the session's consecutive-failure count; reaching
// `quarantine_after` quarantines THAT session — its queue closes and the
// scheduler stops visiting it — while every other session keeps running.
// This is the fleet-level escalation of the per-learner NumericGuard.
//
// Memory. add_session admits a session only while the fleet's summed
// OnDeviceLearner::memory_bytes() stays within the runtime budget
// (RuntimeConfig::pool_budget_bytes(), by default the DECO_TENSOR_POOL_MB
// tensor-pool cap), so one over-provisioned fleet cannot thrash the pool.
//
// Checkpointing. When checkpoint_every > 0, a session that supports_state()
// writes `<checkpoint_dir>/<name>.ckpt` every checkpoint_every processed
// segments (atomic temp+rename via save_state), so a killed process resumes
// any session from its last checkpoint bit-exactly.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "deco/core/learner.h"
#include "deco/runtime/config.h"
#include "deco/runtime/queue.h"

namespace deco::runtime {

enum class SessionState {
  kActive,       ///< scheduled normally
  kQuarantined,  ///< too many consecutive failures; queue closed, skipped
};

std::string session_state_name(SessionState s);

/// Point-in-time view of one session (status() copies under the lock).
struct SessionStatus {
  std::string name;
  SessionState state = SessionState::kActive;
  int64_t segments_processed = 0;
  int64_t segments_failed = 0;       ///< exceptions + guard-skipped segments
  int64_t consecutive_failures = 0;
  int64_t checkpoints_written = 0;
  int64_t memory_bytes = 0;          ///< learner estimate at admission
  std::string checkpoint_path;       ///< empty when checkpointing is off
  std::string last_error;            ///< most recent failure message
  QueueStats queue;
};

class SessionManager {
 public:
  explicit SessionManager(RuntimeConfig config);
  ~SessionManager();  ///< stop()s the pump and closes every queue
  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Registers a learner under a unique name. `keepalive` optionally owns
  /// whatever the learner references (learners hold their ConvNet by
  /// reference, so pass the model's owner here to tie the lifetimes).
  /// Throws deco::Error on a duplicate name or when admitting the learner
  /// would push the fleet past the memory budget.
  void add_session(const std::string& name,
                   std::unique_ptr<core::OnDeviceLearner> learner,
                   std::shared_ptr<void> keepalive = nullptr);

  /// Enqueues one segment on the named session's queue, honoring the
  /// overflow policy (may block under kBlock). Returns false when the queue
  /// is closed (session quarantined or shutting down). Thread-safe; any
  /// number of producers may submit concurrently.
  bool submit(const std::string& name, Tensor segment);

  /// Closes every session's ingest queue: already-queued segments still get
  /// processed, further submits return false.
  void close_all();

  /// Runs one DRR scheduler round: every active session with queued work
  /// processes up to its deficit of segments, concurrently across sessions,
  /// with a barrier at the end. Returns segments processed this round.
  /// Not reentrant — one scheduler (the pump thread OR the caller), never
  /// both; submit()/status() remain safe concurrently.
  int64_t run_round();

  /// Runs rounds until no active session has queued work. (Segments stranded
  /// on quarantined sessions' queues are abandoned.)
  void drain();

  /// Starts the background pump thread: rounds run as submissions arrive.
  void start();
  /// Closes every queue, drains the remaining work and joins the pump.
  /// Idempotent; also called by the destructor.
  void stop();

  int64_t session_count() const;
  /// Throws deco::Error when `name` is unknown.
  SessionStatus status(const std::string& name) const;
  std::vector<SessionStatus> statuses() const;
  /// Direct learner access (final evaluation, save_state in tests). Only
  /// touch it while the scheduler is quiescent.
  core::OnDeviceLearner& learner(const std::string& name);
  /// Per-session reports in processing order; empty unless
  /// RuntimeConfig::keep_reports.
  std::vector<core::SegmentReport> reports(const std::string& name) const;

  int64_t total_processed() const;
  const RuntimeConfig& config() const { return config_; }

 private:
  struct Session {
    std::string name;
    std::unique_ptr<core::OnDeviceLearner> learner;
    std::shared_ptr<void> keepalive;
    std::unique_ptr<SegmentQueue> queue;
    std::string checkpoint_path;
    int64_t admitted_bytes = 0;
    int64_t deficit = 0;  ///< scheduler credit; touched only by run_round

    // Mutable status, guarded by `m` (the turn task writes, status() reads).
    mutable std::mutex m;
    SessionState state = SessionState::kActive;
    int64_t segments_processed = 0;
    int64_t segments_failed = 0;
    int64_t consecutive_failures = 0;
    int64_t checkpoints_written = 0;
    std::string last_error;
    std::vector<core::SegmentReport> reports;
  };

  Session* find(const std::string& name) const;
  Session& find_or_throw(const std::string& name) const;
  /// Processes up to `budget` segments of one session, serially. Returns the
  /// number actually processed.
  int64_t process_turn(Session& s, int64_t budget);
  void pump_loop();

  const RuntimeConfig config_;

  // Guards the sessions vector and the scheduler cursor. Session objects are
  // heap-allocated, so pointers taken under the lock stay valid outside it.
  mutable std::mutex sessions_mutex_;
  std::vector<std::unique_ptr<Session>> sessions_;
  int64_t cursor_ = 0;

  // Pump-thread plumbing.
  std::mutex pump_mutex_;
  std::condition_variable pump_cv_;
  bool pump_pending_ = false;
  bool pump_stop_ = false;
  bool pump_running_ = false;
  std::thread pump_;
};

}  // namespace deco::runtime
