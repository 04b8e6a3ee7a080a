// Self-tests for the statistics the benchmark reports.
//
// perfbench_selftest exits non-zero when any check fails. run.py runs it
// before every measured run, so a benchmark whose arithmetic broke never
// reports a number. Timing checks leave wide margins: the self-test must not
// fail on a busy host.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "deco/core/thread_pool.h"
#include "deco/runtime/session_manager.h"
#include "open_loop.h"
#include "stats.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("selftest FAILED: %s\n", what.c_str());
    ++g_failures;
  }
}

std::vector<double> ramp(int64_t n) {
  std::vector<double> v;
  for (int64_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void percentile_needs_ten_samples_beyond() {
  check(min_samples_for(0.9) == 100, "p90 needs 100 samples");
  check(!tail_percentile(ramp(99), 0.9).has_value(),
        "p90 of 99 samples (9 beyond) is refused");
  const std::optional<double> p = tail_percentile(ramp(100), 0.9);
  check(p.has_value() && *p == 90.0, "p90 of 1..100 is 90, with 10 beyond");
  check(!tail_percentile(ramp(10), 0.5).has_value(),
        "p50 of 10 samples (5 beyond) is refused as a tail percentile");
  check(tail_percentile(ramp(20), 0.5).has_value(), "p50 of 20 samples is accepted");
  check(!tail_percentile({}, 0.9).has_value(), "no samples, no percentile");
  check(median({3.0, 1.0, 2.0}) == 2.0 && median({4.0, 1.0, 2.0, 3.0}) == 2.5,
        "median of odd and even counts");
}

void segments_split_by_beta() {
  std::vector<double> due, start, end;
  for (int i = 0; i < 25; ++i) {
    due.push_back(i);
    start.push_back(i + 0.25);
    end.push_back(i + (i % 10 == 9 ? 5.0 : 1.0));  // 10th, 20th retrain
  }
  const std::vector<SegmentTiming> t = pair_timings(due, start, end, 10);
  check(t.size() == 25, "pairing keeps every segment");
  const SplitLatencies s = split_by_beta(t);
  check(s.retrain.size() == 2 && s.plain.size() == 23,
        "25 segments at beta 10 split into 23 plain + 2 retrain");
  check(s.retrain[0] == 5.0 && s.retrain[1] == 5.0,
        "the 10th and 20th segments are the retrain ones");
  check(!is_retrain_segment(1, 10) && is_retrain_segment(30, 10) &&
            !is_retrain_segment(5, 0),
        "retrain iff k % beta == 0");
  due.pop_back();
  check(pair_timings(due, start, end, 10).empty(),
        "a lost segment makes the pairing fail");
}

/// Sleeps a fixed time per segment; the model is a stub that is never used.
class SleepLearner final : public deco::core::OnDeviceLearner {
 public:
  explicit SleepLearner(double sleep_s) : sleep_s_(sleep_s) {}
  deco::core::SegmentReport observe_segment(const deco::Tensor&) override {
    std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s_));
    return {};
  }
  deco::nn::ConvNet& model() override { throw std::logic_error("no model"); }
  std::string name() const override { return "sleep"; }
  double condense_seconds() const override { return 0.0; }

 private:
  double sleep_s_;
};

struct LoopOutcome {
  std::vector<std::vector<SegmentTiming>> timings;
  OpenLoopResult arrivals;
};

LoopOutcome run_sleep_fleet(double sleep_s, double rate, int64_t per_session) {
  deco::runtime::RuntimeConfig rc;
  rc.queue_depth = per_session;
  deco::runtime::SessionManager manager(rc);
  const std::vector<std::string> names = {"a", "b"};
  std::vector<TimedLearner*> timed;
  for (const std::string& n : names) {
    auto t = std::make_unique<TimedLearner>(std::make_unique<SleepLearner>(sleep_s));
    timed.push_back(t.get());
    manager.add_session(n, std::move(t));
  }
  LoopOutcome out;
  out.arrivals = run_open_loop(manager, names, rate, per_session,
                               [](size_t) { return deco::Tensor({1}); });
  for (size_t s = 0; s < names.size(); ++s) {
    std::vector<double> starts, ends;
    for (const CallRecord& c : timed[s]->calls()) {
      starts.push_back(c.start);
      ends.push_back(c.end);
    }
    out.timings.push_back(pair_timings(out.arrivals.due[s], starts, ends, 4));
  }
  return out;
}

void open_loop_latency_is_wait_plus_service() {
  const double sleep_s = 0.004;
  // Under capacity: 2 sessions on 2 threads, 4 ms each, offered 100/s.
  LoopOutcome light = run_sleep_fleet(sleep_s, 100.0, 20);
  check(light.arrivals.submitted == 40 && light.arrivals.lag.size() == 40,
        "every arrival is submitted and its generator lag reported");
  for (const std::vector<SegmentTiming>& session : light.timings) {
    check(session.size() == 20, "each session processes its 20 arrivals");
    for (const SegmentTiming& t : session) {
      check(std::fabs(t.latency() - (t.queue_wait() + t.service())) < 1e-9,
            "latency == queue wait + service");
      check(t.queue_wait() >= 0.0, "no segment starts before it is due");
      check(t.service() >= sleep_s, "service covers the learner's sleep");
    }
  }
  double max_lag = 0.0;
  for (double l : light.arrivals.lag) max_lag = std::max(max_lag, l);
  check(max_lag >= 0.0 && max_lag < 0.1, "generator keeps its schedule");

  // Over capacity (1 thread, 10 ms per segment, offered 1000/s): the
  // schedule does not wait for the fleet, so queue wait grows along the run
  // (to about 0.35 s) while the generator stays on time.
  const double heavy_sleep_s = 0.01;
  deco::core::set_num_threads(1);
  LoopOutcome heavy = run_sleep_fleet(heavy_sleep_s, 1000.0, 20);
  deco::core::set_num_threads(2);
  for (const std::vector<SegmentTiming>& session : heavy.timings) {
    check(session.size() == 20, "overloaded sessions still process everything");
    if (session.size() != 20) continue;
    check(session.back().queue_wait() > session.front().queue_wait() + 0.2,
          "queue wait grows when arrivals outpace service");
    for (const SegmentTiming& t : session)
      check(std::fabs(t.latency() - (t.queue_wait() + t.service())) < 1e-9,
            "latency == queue wait + service under overload");
  }
  double heavy_lag = 0.0;
  for (double l : heavy.arrivals.lag) heavy_lag = std::max(heavy_lag, l);
  check(heavy.arrivals.lag.size() == 40 && heavy_lag < 0.1,
        "overloaded generator still submits on schedule");
}

}  // namespace

int main() {
  deco::core::set_num_threads(2);
  percentile_needs_ten_samples_beyond();
  segments_split_by_beta();
  open_loop_latency_is_wait_plus_service();
  if (g_failures == 0) std::printf("perfbench selftest: ok\n");
  return g_failures == 0 ? 0 : 1;
}
