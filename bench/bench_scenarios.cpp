// Scenario-matrix bench: every method across the deployment-scenario catalog.
//
// Runs the scenario × method cross product through the evaluation harness
// (scenario/harness.h) and writes BENCH_scenarios.json — the per-PR tracked
// artifact with one row per cell: accuracy, forgetting, pseudo-label
// accuracy, shed segments, peak pool bytes, wall time. Numbers are
// informational; the binary fails only on functional bugs:
//
//   * a requested cell is missing from the report,
//   * a deterministic metric is non-finite, or
//   * segments went missing (processed + shed != submitted).
//
// Knobs:
//   DECO_SCENARIOS = comma list (default: the full built-in catalog)
//   DECO_METHODS   = comma list (default: every method in the matrix)
//   DECO_SEGMENTS  = per-session stream length override
//   DECO_SEED      = cell seed (default 1)
//   DECO_BENCH_SCALE = quick | full (full: longer streams, deeper updates)
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_io.h"
#include "deco/core/thread_pool.h"
#include "deco/eval/report.h"
#include "deco/scenario/harness.h"

namespace {

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main() {
  using namespace deco;

  const bool full = eval::full_scale();
  scenario::HarnessOptions options;
  options.seed = static_cast<uint64_t>(eval::env_int("DECO_SEED", 1, 0));
  options.segments = eval::env_int("DECO_SEGMENTS", full ? 24 : 0, 1);
  if (full) {
    options.model_update_epochs = 10;
    options.pretrain_epochs = 20;
    options.test_per_class = 25;
    options.condenser_iterations = 5;
  }

  std::vector<scenario::ScenarioSpec> scenarios;
  const char* sc_env = std::getenv("DECO_SCENARIOS");
  if (sc_env != nullptr && *sc_env != '\0') {
    for (const std::string& name : split_csv(sc_env))
      scenarios.push_back(scenario::scenario_by_name(name));
  } else {
    scenarios = scenario::builtin_scenarios();
  }

  std::vector<std::string> methods;
  const char* m_env = std::getenv("DECO_METHODS");
  if (m_env != nullptr && *m_env != '\0') {
    methods = split_csv(m_env);
  } else {
    methods = scenario::builtin_methods();
  }

  std::cout << "# bench_scenarios\n"
            << "scale=" << (full ? "full" : "quick")
            << " threads=" << core::num_threads()
            << " scenarios=" << scenarios.size()
            << " methods=" << methods.size() << " seed=" << options.seed
            << "\n\n";

  const double t0 = bench::now_seconds();
  const scenario::MatrixReport report =
      scenario::run_matrix(scenarios, methods, options);
  const double total_s = bench::now_seconds() - t0;

  int failures = 0;
  std::cout << "scenario  method  acc  forget  shed  seconds\n";
  for (const scenario::CellResult& c : report.cells) {
    std::cout << c.scenario << "  " << c.method << "  " << c.accuracy << "  "
              << c.forgetting << "  " << c.segments_shed << "  "
              << c.wall_seconds << "\n";
    if (!std::isfinite(c.accuracy) || !std::isfinite(c.forgetting)) {
      std::cout << "FAIL: non-finite metric in cell " << c.scenario << "/"
                << c.method << "\n";
      ++failures;
    }
    if (c.segments_processed + c.segments_shed != c.segments_submitted) {
      std::cout << "FAIL: " << c.scenario << "/" << c.method << " lost "
                << c.segments_submitted - c.segments_processed -
                       c.segments_shed
                << " segments (submitted " << c.segments_submitted
                << ", processed " << c.segments_processed << ", shed "
                << c.segments_shed << ")\n";
      ++failures;
    }
  }
  // Paired memory-pressure gates: whenever a method ran both mem_pressure
  // cells, the int8 cache must actually compress (>= 3.5x vs the logical
  // fp32 bytes), admit at least as many sessions under the same budget, and
  // stay within a smoke-test accuracy band of the fp32 cell.
  for (const scenario::CellResult& f32 : report.cells) {
    if (f32.scenario != "mem_pressure_fp32") continue;
    for (const scenario::CellResult& q8 : report.cells) {
      if (q8.scenario != "mem_pressure_int8" || q8.method != f32.method)
        continue;
      const double ratio =
          q8.cache_stored_bytes > 0
              ? static_cast<double>(q8.cache_logical_bytes) /
                    static_cast<double>(q8.cache_stored_bytes)
              : 0.0;
      if (ratio < 3.5) {
        std::cout << "FAIL: mem_pressure_int8/" << q8.method
                  << " cache compression " << ratio << "x < 3.5x\n";
        ++failures;
      }
      if (q8.sessions_admitted < f32.sessions_admitted) {
        std::cout << "FAIL: mem_pressure_int8/" << q8.method << " admitted "
                  << q8.sessions_admitted << " sessions < fp32's "
                  << f32.sessions_admitted << "\n";
        ++failures;
      }
      if (std::abs(q8.accuracy - f32.accuracy) > 20.0f) {
        std::cout << "FAIL: mem_pressure int8 vs fp32 accuracy delta "
                  << std::abs(q8.accuracy - f32.accuracy) << " > 20 for "
                  << q8.method << "\n";
        ++failures;
      }
      std::cout << "mem_pressure[" << q8.method << "]: compression=" << ratio
                << "x admitted fp32=" << f32.sessions_admitted
                << " int8=" << q8.sessions_admitted << "\n";
    }
  }

  const size_t expected = scenarios.size() * methods.size();
  if (report.cells.size() != expected) {
    std::cout << "FAIL: expected " << expected << " cells, got "
              << report.cells.size() << "\n";
    ++failures;
  }

  scenario::write_matrix_json(report, "BENCH_scenarios.json");
  std::cout << "\nmatrix (" << report.cells.size() << " cells, " << total_s
            << " s) written to BENCH_scenarios.json\n";

  std::cout << (failures == 0 ? "bench-scenarios: PASS"
                              : "bench-scenarios: FAIL")
            << "\n";
  return failures;
}
