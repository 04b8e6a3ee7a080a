// Runtime configuration plus the unified key=value / JSON config loader.
//
// The ConfigMap is the one key=value parsing path (deco_cli and the tests
// use it; the benches and examples set the config structs in code): it
// ingests `key=value` lines (or a flat JSON object) from a file, stdin
// text or --set overrides, and applies them onto the three config structs —
// `deco.*` → core::DecoConfig, `stream.*` → data::StreamConfig, `runtime.*`
// → runtime::RuntimeConfig. The loader only converts and routes values;
// range checking stays where it always was, in each struct's validate().
// Every loader error names the offending key, so a typo fails like
//   config: unknown key 'deco.treshold_m'
// instead of silently running the default.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "deco/core/learner.h"
#include "deco/data/stream.h"
#include "deco/runtime/queue.h"

namespace deco::runtime {

/// Multi-session runtime policy knobs (see session_manager.h for semantics).
struct RuntimeConfig {
  int64_t queue_depth = 8;      ///< per-session ingest queue bound
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  int64_t quantum = 1;          ///< segments per session per scheduler round
  int64_t max_deficit = 8;      ///< cap on banked scheduler credit (DRR)
  int64_t checkpoint_every = 0; ///< segments between checkpoints (0 = off)
  std::string checkpoint_dir = ".";
  int64_t quarantine_after = 3; ///< consecutive failed segments before
                                ///< quarantine (0 = never quarantine)
  int64_t pool_budget_mb = 0;   ///< fleet memory budget; 0 = the tensor
                                ///< pool cap (DECO_TENSOR_POOL_MB)
  bool keep_reports = false;    ///< retain every SegmentReport per session
  DType checkpoint_dtype = DType::kF32;  ///< dtype applied to every hosted
                                         ///< learner's save_state model
                                         ///< parameters (fp32 = bit-exact)

  /// Throws deco::Error on out-of-range knobs.
  void validate() const;
  /// Resolved budget in bytes (pool_budget_mb, or the tensor-pool cap).
  int64_t pool_budget_bytes() const;
};

/// Ordered key→value map with consumption tracking. Keys are free-form
/// dotted paths; later entries override earlier ones. apply()/get_* mark
/// entries consumed, and check_fully_consumed() turns leftovers (typos,
/// keys for a config the caller never applied) into errors naming the key.
class ConfigMap {
 public:
  ConfigMap() = default;

  /// Loads a config file: `*.json` parses as a flat JSON object, anything
  /// else as `key=value` lines (blank lines and `#` comments ignored).
  static ConfigMap from_file(const std::string& path);
  static ConfigMap from_kv_text(const std::string& text);
  /// Flat JSON object of string/number/bool values.
  static ConfigMap from_json_text(const std::string& text);

  /// Adds or overrides one entry.
  void set(const std::string& key, const std::string& value);
  /// Parses one "key=value" token (--set plumbing). Throws on bad syntax.
  void set_kv(const std::string& kv);

  bool empty() const { return entries_.empty(); }
  bool has(const std::string& key) const;

  // Typed single-key getters; the key is marked consumed. Malformed values
  // throw deco::Error naming the key.
  int64_t get_int(const std::string& key, int64_t fallback);
  /// "fp32" | "fp16" | "int8"; bad values throw naming the key.
  DType get_dtype(const std::string& key, DType fallback);

  /// Applies every `deco.*` key. Unknown keys under the prefix throw.
  void apply(core::DecoConfig& cfg);
  /// Applies every `stream.*` key.
  void apply(data::StreamConfig& cfg);
  /// Applies every `runtime.*` key.
  void apply(RuntimeConfig& cfg);

  /// Throws deco::Error listing every never-consumed key.
  void check_fully_consumed() const;

 private:
  struct Entry {
    std::string key, value;
    bool consumed = false;
  };
  Entry* find(const std::string& key);
  // Typed conversions of one entry's value, error messages name entry.key.
  static int64_t to_int(const Entry& e);
  static double to_double(const Entry& e);
  static bool to_bool(const Entry& e);

  std::vector<Entry> entries_;
};

}  // namespace deco::runtime
