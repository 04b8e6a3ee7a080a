#include "deco/runtime/config.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "deco/tensor/buffer_pool.h"
#include "deco/tensor/check.h"

namespace deco::runtime {

void RuntimeConfig::validate() const {
  DECO_CHECK(queue_depth >= 1, "RuntimeConfig: queue_depth must be >= 1");
  DECO_CHECK(quantum >= 1, "RuntimeConfig: quantum must be >= 1");
  DECO_CHECK(max_deficit >= quantum,
             "RuntimeConfig: max_deficit must be >= quantum");
  DECO_CHECK(checkpoint_every >= 0,
             "RuntimeConfig: checkpoint_every must be >= 0");
  DECO_CHECK(quarantine_after >= 0,
             "RuntimeConfig: quarantine_after must be >= 0");
  DECO_CHECK(pool_budget_mb >= 0, "RuntimeConfig: pool_budget_mb must be >= 0");
}

int64_t RuntimeConfig::pool_budget_bytes() const {
  if (pool_budget_mb > 0) return pool_budget_mb * (int64_t{1} << 20);
  return detail::tensor_pool_cap_bytes();
}

// ---- ConfigMap --------------------------------------------------------------

namespace {

std::string trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

ConfigMap ConfigMap::from_file(const std::string& path) {
  std::ifstream is(path);
  DECO_CHECK(is.is_open(), "config: cannot open " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  return ends_with(path, ".json") ? from_json_text(buf.str())
                                  : from_kv_text(buf.str());
}

ConfigMap ConfigMap::from_kv_text(const std::string& text) {
  ConfigMap m;
  std::istringstream is(text);
  std::string line;
  int64_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (const size_t hash = line.find('#'); hash != std::string::npos)
      line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    DECO_CHECK(eq != std::string::npos,
               "config line " + std::to_string(lineno) +
                   ": expected key=value, got '" + line + "'");
    const std::string key = trim(line.substr(0, eq));
    DECO_CHECK(!key.empty(),
               "config line " + std::to_string(lineno) + ": empty key");
    m.set(key, trim(line.substr(eq + 1)));
  }
  return m;
}

// Minimal flat-JSON-object parser: {"key": <string|number|bool|null>, ...}.
// Values are stored as their literal text (strings unescaped for \" \\ only)
// and converted by the typed getters, so "8" and 8 behave identically.
ConfigMap ConfigMap::from_json_text(const std::string& text) {
  ConfigMap m;
  size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
  };
  const auto fail = [&](const std::string& what) {
    DECO_CHECK(false, "config JSON: " + what + " at offset " +
                          std::to_string(i));
  };
  const auto parse_string = [&]() -> std::string {
    if (text[i] != '"') fail("expected '\"'");
    ++i;
    std::string out;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\' && i + 1 < text.size()) {
        ++i;
        out.push_back(text[i] == 'n' ? '\n' : text[i]);
      } else {
        out.push_back(text[i]);
      }
      ++i;
    }
    if (i >= text.size()) fail("unterminated string");
    ++i;
    return out;
  };

  skip_ws();
  if (i >= text.size() || text[i] != '{') fail("expected '{'");
  ++i;
  skip_ws();
  if (i < text.size() && text[i] == '}') return m;
  while (true) {
    skip_ws();
    if (i >= text.size()) fail("unterminated object");
    const std::string key = parse_string();
    skip_ws();
    if (i >= text.size() || text[i] != ':') fail("expected ':' after key '" + key + "'");
    ++i;
    skip_ws();
    if (i >= text.size()) fail("missing value for key '" + key + "'");
    std::string value;
    if (text[i] == '"') {
      value = parse_string();
    } else {
      const size_t start = i;
      while (i < text.size() && text[i] != ',' && text[i] != '}' &&
             !std::isspace(static_cast<unsigned char>(text[i])))
        ++i;
      value = text.substr(start, i - start);
      if (value.empty()) fail("missing value for key '" + key + "'");
      if (value == "null") value.clear();
    }
    m.set(key, value);
    skip_ws();
    if (i >= text.size()) fail("unterminated object");
    if (text[i] == '}') break;
    if (text[i] != ',') fail("expected ',' or '}'");
    ++i;
  }
  return m;
}

void ConfigMap::set(const std::string& key, const std::string& value) {
  if (Entry* e = find(key)) {
    e->value = value;
    e->consumed = false;
    return;
  }
  entries_.push_back({key, value, false});
}

void ConfigMap::set_kv(const std::string& kv) {
  const size_t eq = kv.find('=');
  DECO_CHECK(eq != std::string::npos && eq > 0,
             "config: expected key=value, got '" + kv + "'");
  set(trim(kv.substr(0, eq)), trim(kv.substr(eq + 1)));
}

bool ConfigMap::has(const std::string& key) const {
  for (const Entry& e : entries_)
    if (e.key == key) return true;
  return false;
}

ConfigMap::Entry* ConfigMap::find(const std::string& key) {
  for (Entry& e : entries_)
    if (e.key == key) return &e;
  return nullptr;
}

int64_t ConfigMap::to_int(const Entry& e) {
  char* end = nullptr;
  const long long v = std::strtoll(e.value.c_str(), &end, 10);
  DECO_CHECK(end != e.value.c_str() && *end == '\0',
             "config: key '" + e.key + "' expects an integer, got '" +
                 e.value + "'");
  return static_cast<int64_t>(v);
}

double ConfigMap::to_double(const Entry& e) {
  char* end = nullptr;
  const double v = std::strtod(e.value.c_str(), &end);
  DECO_CHECK(end != e.value.c_str() && *end == '\0',
             "config: key '" + e.key + "' expects a number, got '" + e.value +
                 "'");
  return v;
}

bool ConfigMap::to_bool(const Entry& e) {
  const std::string& v = e.value;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  DECO_CHECK(false, "config: key '" + e.key + "' expects a boolean, got '" +
                        v + "'");
  return false;
}

int64_t ConfigMap::get_int(const std::string& key, int64_t fallback) {
  Entry* e = find(key);
  if (e == nullptr) return fallback;
  e->consumed = true;
  return to_int(*e);
}

namespace {
/// Converts one entry's value to a DType, naming the key on bad values.
DType to_dtype(const std::string& key, const std::string& value) {
  try {
    return dtype_from_name(value);
  } catch (const Error&) {
    DECO_CHECK(false, "config: key '" + key +
                          "' expects fp32 | fp16 | int8, got '" + value + "'");
  }
  return DType::kF32;
}
}  // namespace

DType ConfigMap::get_dtype(const std::string& key, DType fallback) {
  Entry* e = find(key);
  if (e == nullptr) return fallback;
  e->consumed = true;
  return to_dtype(e->key, e->value);
}

void ConfigMap::apply(core::DecoConfig& cfg) {
  for (Entry& e : entries_) {
    if (e.key.rfind("deco.", 0) != 0) continue;
    const std::string k = e.key.substr(5);
    if (k == "ipc") cfg.ipc = to_int(e);
    else if (k == "threshold_m") cfg.threshold_m = static_cast<float>(to_double(e));
    else if (k == "beta") cfg.beta = to_int(e);
    else if (k == "model_update_epochs") cfg.model_update_epochs = to_int(e);
    else if (k == "lr_model") cfg.lr_model = static_cast<float>(to_double(e));
    else if (k == "weight_decay") cfg.weight_decay = static_cast<float>(to_double(e));
    else if (k == "train_batch") cfg.train_batch = to_int(e);
    else if (k == "use_majority_voting") cfg.use_majority_voting = to_bool(e);
    else if (k == "condenser.iterations") cfg.condenser.iterations = to_int(e);
    else if (k == "condenser.lr_syn") cfg.condenser.lr_syn = static_cast<float>(to_double(e));
    else if (k == "condenser.momentum_syn") cfg.condenser.momentum_syn = static_cast<float>(to_double(e));
    else if (k == "condenser.alpha") cfg.condenser.alpha = static_cast<float>(to_double(e));
    else if (k == "condenser.tau") cfg.condenser.tau = static_cast<float>(to_double(e));
    else if (k == "condenser.feature_discrimination") cfg.condenser.feature_discrimination = to_bool(e);
    else if (k == "condenser.learn_soft_labels") cfg.condenser.learn_soft_labels = to_bool(e);
    else if (k == "guard.enabled") cfg.guard.enabled = to_bool(e);
    else if (k == "guard.max_grad_norm") cfg.guard.max_grad_norm = static_cast<float>(to_double(e));
    else if (k == "guard.max_condense_distance") cfg.guard.max_condense_distance = static_cast<float>(to_double(e));
    else if (k == "guard.backoff") cfg.guard.backoff = static_cast<float>(to_double(e));
    else if (k == "cache_dtype") cfg.storage.cache_dtype = to_dtype(e.key, e.value);
    else if (k == "quant_block") cfg.storage.block = to_int(e);
    else DECO_CHECK(false, "config: unknown key '" + e.key + "'");
    e.consumed = true;
  }
}

void ConfigMap::apply(data::StreamConfig& cfg) {
  for (Entry& e : entries_) {
    if (e.key.rfind("stream.", 0) != 0) continue;
    const std::string k = e.key.substr(7);
    if (k == "stc") cfg.stc = to_int(e);
    else if (k == "segment_size") cfg.segment_size = to_int(e);
    else if (k == "total_segments") cfg.total_segments = to_int(e);
    else if (k == "video_mode") cfg.video_mode = to_bool(e);
    else DECO_CHECK(false, "config: unknown key '" + e.key + "'");
    e.consumed = true;
  }
}

void ConfigMap::apply(RuntimeConfig& cfg) {
  for (Entry& e : entries_) {
    if (e.key.rfind("runtime.", 0) != 0) continue;
    const std::string k = e.key.substr(8);
    if (k == "queue_depth") cfg.queue_depth = to_int(e);
    else if (k == "overflow") {
      e.consumed = true;  // name the key, not the raw token, on bad values
      try {
        cfg.overflow = overflow_policy_from_name(e.value);
      } catch (const Error&) {
        DECO_CHECK(false, "config: key '" + e.key +
                              "' expects block | shed_oldest, got '" +
                              e.value + "'");
      }
      continue;
    }
    else if (k == "quantum") cfg.quantum = to_int(e);
    else if (k == "max_deficit") cfg.max_deficit = to_int(e);
    else if (k == "checkpoint_every") cfg.checkpoint_every = to_int(e);
    else if (k == "checkpoint_dir") cfg.checkpoint_dir = e.value;
    else if (k == "quarantine_after") cfg.quarantine_after = to_int(e);
    else if (k == "pool_budget_mb") cfg.pool_budget_mb = to_int(e);
    else if (k == "keep_reports") cfg.keep_reports = to_bool(e);
    else if (k == "checkpoint_dtype") cfg.checkpoint_dtype = to_dtype(e.key, e.value);
    else DECO_CHECK(false, "config: unknown key '" + e.key + "'");
    e.consumed = true;
  }
}

void ConfigMap::check_fully_consumed() const {
  std::string leftover;
  for (const Entry& e : entries_) {
    if (e.consumed) continue;
    if (!leftover.empty()) leftover += ", ";
    leftover += "'" + e.key + "'";
  }
  DECO_CHECK(leftover.empty(), "config: unknown key(s) " + leftover);
}

}  // namespace deco::runtime
