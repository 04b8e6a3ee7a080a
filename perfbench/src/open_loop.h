// Outside-in timing of learners hosted by runtime::SessionManager.
//
// TimedLearner forwards every OnDeviceLearner virtual to the wrapped learner
// unchanged (so admission, checkpoint dtype and checkpoint cadence behave as
// they would without it) and stamps the start and end of each
// observe_segment and save_state call. run_open_loop submits segments on a
// fixed schedule that never waits for the fleet; because each session is
// processed in FIFO order, a session's k-th observe_segment call belongs to
// its k-th due time.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "deco/core/learner.h"
#include "deco/runtime/session_manager.h"

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline void sleep_until_s(double t) {
  using clock = std::chrono::steady_clock;
  std::this_thread::sleep_until(clock::time_point(
      std::chrono::duration_cast<clock::duration>(
          std::chrono::duration<double>(t))));
}

/// What one observe_segment call did, as far as the benchmark checks it.
/// A call that throws is still recorded, so the k-th record stays the
/// session's k-th segment.
struct CallRecord {
  double start = 0.0;
  double end = 0.0;
  std::vector<int64_t> pseudo_labels;
  int64_t retained = 0;
  int64_t active_classes = 0;
};

struct SaveRecord {
  double start = 0.0;
  double end = 0.0;
};

/// Forwarding decorator. The records are written by whichever pool thread
/// runs the session's turn (turns of one session never overlap) and must be
/// read only once the manager is stopped.
class TimedLearner final : public deco::core::OnDeviceLearner {
 public:
  explicit TimedLearner(std::unique_ptr<deco::core::OnDeviceLearner> inner)
      : inner_(std::move(inner)) {}

  deco::core::SegmentReport observe_segment(const deco::Tensor& images) override {
    return stamped([&] { return inner_->observe_segment(images); });
  }
  deco::core::SegmentReport observe_labeled_segment(
      const deco::Tensor& images,
      const std::vector<int64_t>& true_labels) override {
    return stamped(
        [&] { return inner_->observe_labeled_segment(images, true_labels); });
  }
  deco::nn::ConvNet& model() override { return inner_->model(); }
  std::string name() const override { return inner_->name(); }
  double condense_seconds() const override {
    return inner_->condense_seconds();
  }
  void update_model_now() override { inner_->update_model_now(); }
  bool supports_state() const override { return inner_->supports_state(); }
  void save_state(const std::string& path) const override {
    SaveRecord r;
    r.start = now_s();
    inner_->save_state(path);
    r.end = now_s();
    saves_.push_back(r);
  }
  void load_state(const std::string& path) override {
    inner_->load_state(path);
  }
  int64_t memory_bytes() const override { return inner_->memory_bytes(); }
  int64_t cache_stored_bytes() const override {
    return inner_->cache_stored_bytes();
  }
  int64_t cache_logical_bytes() const override {
    return inner_->cache_logical_bytes();
  }
  void set_checkpoint_dtype(deco::DType dtype) override {
    inner_->set_checkpoint_dtype(dtype);
  }

  const std::vector<CallRecord>& calls() const { return calls_; }
  const std::vector<SaveRecord>& saves() const { return saves_; }

 private:
  template <typename F>
  deco::core::SegmentReport stamped(F&& f) {
    CallRecord r;
    r.start = now_s();
    try {
      deco::core::SegmentReport rep = f();
      r.end = now_s();
      r.pseudo_labels = rep.pseudo_labels;
      r.retained = static_cast<int64_t>(rep.retained.size());
      r.active_classes = rep.active_class_count;
      calls_.push_back(std::move(r));
      return rep;
    } catch (...) {
      r.end = now_s();
      calls_.push_back(std::move(r));
      throw;
    }
  }

  std::unique_ptr<deco::core::OnDeviceLearner> inner_;
  std::vector<CallRecord> calls_;
  mutable std::vector<SaveRecord> saves_;  // save_state is const
};

struct OpenLoopResult {
  std::vector<std::vector<double>> due;  ///< per session, accepted arrivals
  std::vector<double> lag;     ///< submit time minus due time, per arrival
  std::vector<double> make_s;  ///< time spent producing each segment
  int64_t submitted = 0;
  int64_t rejected = 0;        ///< submit() returned false (closed queue)
  double first_due = 0.0;
};

/// Open-loop arrivals: arrival k goes to session k % n and is due at
/// first_due + k / rate, whatever the fleet is doing. make(s) produces
/// session s's next segment ahead of its due time. Starts the manager's pump
/// and stops it (which drains every queue) before returning.
template <typename Make>
OpenLoopResult run_open_loop(deco::runtime::SessionManager& manager,
                             const std::vector<std::string>& names,
                             double rate_per_s, int64_t per_session,
                             Make&& make) {
  OpenLoopResult out;
  const int64_t n = static_cast<int64_t>(names.size());
  out.due.resize(names.size());
  manager.start();
  out.first_due = now_s() + 0.005;
  for (int64_t k = 0; k < per_session * n; ++k) {
    const size_t s = static_cast<size_t>(k % n);
    const double m0 = now_s();
    deco::Tensor segment = make(s);
    out.make_s.push_back(now_s() - m0);
    const double due = out.first_due + static_cast<double>(k) / rate_per_s;
    sleep_until_s(due);
    out.lag.push_back(now_s() - due);
    out.due[s].push_back(due);
    if (manager.submit(names[s], std::move(segment))) {
      ++out.submitted;
    } else {
      out.due[s].pop_back();
      ++out.rejected;
    }
  }
  manager.stop();
  return out;
}

}  // namespace perfbench
