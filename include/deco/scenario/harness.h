// DC-BENCH-style evaluation harness: scenario × method matrix runner.
//
// run_cell() executes ONE (scenario, method) pair end to end: build the
// world(s), pre-train one model per session, stack the scenario's decorator
// chain over each session's TemporalStream, replay the streams through a
// runtime::SessionManager following the scenario's arrival schedule (manual
// run_round() scheduling — no pump thread — so queue sheds are a pure
// function of the schedule), snapshot per-class accuracy for the forgetting
// meter, and emit one comparable row: accuracy, forgetting, peak pool bytes,
// shed segments, wall time.
//
// run_matrix() maps run_cell over the catalog and a method list; the report
// serializes to BENCH_scenarios.json (schema "deco.bench_scenarios.v2"), the
// per-PR tracked artifact. Every numeric field except wall_seconds is
// deterministic for a given seed at any DECO_NUM_THREADS;
// CellResult::deterministic_json() renders exactly that comparable subset so
// tests can memcmp whole cells across thread counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "deco/scenario/scenario.h"

namespace deco::scenario {

/// Protocol knobs shared by every cell, so cells differ only by scenario and
/// method. Defaults are sized for minutes-scale matrices on one CPU core.
struct HarnessOptions {
  /// Stream length override in segments (0 = the scenario's own
  /// stream.total_segments). This is the one protocol knob that rescales a
  /// whole matrix (`deco_cli bench --matrix --segments N` sets it).
  int64_t segments = 0;
  int64_t ipc = 4;                 ///< buffer images per class
  int64_t model_width = 16;
  int64_t model_depth = 2;
  int64_t pretrain_per_class = 4;  ///< labeled warm-start set size
  int64_t pretrain_epochs = 8;
  int64_t test_per_class = 12;
  int64_t model_update_epochs = 3;
  int64_t beta = 4;                ///< model update interval (segments)
  int64_t condenser_iterations = 2;
  /// Forgetting-snapshot cadence in drained segments (0 = auto: ~3 snapshots
  /// over the stream). The final state is always snapshotted.
  int64_t eval_every_segments = 0;
  /// When true, each session that supports_state() hands its state_bytes()
  /// to CellResult::state_blobs (determinism audits).
  bool capture_state = false;
  uint64_t seed = 1;

  void validate() const;
};

/// One matrix cell: the comparable report row.
struct CellResult {
  std::string scenario;
  std::string method;
  int64_t sessions = 0;            ///< sessions the scenario *offered*
  /// Sessions the runtime's pool-budget admission accepted. Equal to
  /// `sessions` whenever the scenario leaves pool_budget_mb at 0; smaller in
  /// memory-pressure cells where admission rejects part of the fleet. Every
  /// per-session metric below averages over admitted sessions only.
  int64_t sessions_admitted = 0;
  std::string cache_dtype = "fp32";  ///< the scenario's cache storage dtype
  /// Summed cache bytes over admitted sessions, as stored (post-quantization)
  /// and as logical fp32 — their ratio is the compression the cell achieved.
  int64_t cache_stored_bytes = 0;
  int64_t cache_logical_bytes = 0;
  int64_t segments_submitted = 0;  ///< segments offered to the queues
  int64_t segments_processed = 0;  ///< segments the learners consumed
  int64_t segments_shed = 0;       ///< dropped by kShedOldest under bursts
  float accuracy = 0.0f;           ///< mean final test accuracy over sessions
  float forgetting = 0.0f;         ///< mean ForgettingTracker forgetting
  /// Pseudo-label accuracy vs. the (possibly noise-flipped) ground truth over
  /// every processed segment. Only measurable when no segment was shed
  /// (reports then align 1:1 with submissions); -1 under shedding.
  double pseudo_label_accuracy = -1.0;
  int64_t peak_pool_bytes = 0;     ///< peak summed learner memory_bytes
  double wall_seconds = 0.0;       ///< NOT deterministic; excluded below

  /// state_bytes() per session (only when HarnessOptions::capture_state
  /// and the learner supports_state). Not serialized into the report.
  std::vector<std::string> state_blobs;

  /// JSON object with every deterministic field (wall_seconds omitted),
  /// byte-stable for memcmp across DECO_NUM_THREADS.
  std::string deterministic_json() const;
};

struct MatrixReport {
  uint64_t seed = 1;
  int64_t threads = 1;
  std::vector<CellResult> cells;
};

/// Runs one (scenario, method) cell. Throws deco::Error on an invalid spec
/// or unknown method.
CellResult run_cell(const ScenarioSpec& spec, const std::string& method,
                    const HarnessOptions& options);

/// Runs the full cross product, in scenario-major order.
MatrixReport run_matrix(const std::vector<ScenarioSpec>& scenarios,
                        const std::vector<std::string>& methods,
                        const HarnessOptions& options);

/// Serializes a report as the BENCH_scenarios.json document (one row per
/// cell; wall_seconds included — consumers that diff across machines should
/// ignore it).
std::string matrix_json(const MatrixReport& report);
void write_matrix_json(const MatrixReport& report, const std::string& path);

/// The matrix's pass/fail gates, one message per failed gate, each naming
/// its "scenario/method" cell (empty = pass). Every cell must report finite
/// accuracy and forgetting and account for every segment (processed + shed
/// == submitted). For every method that ran both mem_pressure cells, the
/// int8 cell must compress its cache >= 3.5x, admit at least as many
/// sessions as fp32, and stay within 20 accuracy points of it.
std::vector<std::string> matrix_failures(const MatrixReport& report);

}  // namespace deco::scenario
