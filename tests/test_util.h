// Shared helpers for the test suite: numeric gradient checking, tensor
// comparison with readable failure output, and a minimal JSON parser for
// validating the artifacts the library emits (telemetry aggregates,
// BENCH_scenarios.json) without external deps.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "deco/tensor/rng.h"
#include "deco/tensor/tensor.h"

namespace deco::testing {

/// A path under the gtest temp dir that belongs to the running test alone:
/// "<suite>.<test>.<pid>.<name>". ctest runs every discovered case as its
/// own process, concurrently under -j, so a fixed file name would be written
/// and removed by several cases at once.
inline std::string unique_temp_path(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string tag = info == nullptr ? std::string("global")
                                    : std::string(info->test_suite_name()) +
                                          "." + info->name();
  for (char& c : tag) {
    if (c == '/') c = '_';  // parameterized suites and cases contain '/'
  }
  return ::testing::TempDir() + tag + "." + std::to_string(::getpid()) + "." +
         name;
}

/// Central-difference numeric gradient of a scalar function of a tensor.
inline Tensor numeric_gradient(const std::function<float(const Tensor&)>& f,
                               const Tensor& x, float eps = 1e-3f) {
  Tensor grad(x.shape());
  Tensor probe = x;
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float orig = probe[i];
    probe[i] = orig + eps;
    const float fp = f(probe);
    probe[i] = orig - eps;
    const float fm = f(probe);
    probe[i] = orig;
    grad[i] = (fp - fm) / (2.0f * eps);
  }
  return grad;
}

/// Asserts elementwise closeness with a combined absolute/relative tolerance.
inline void expect_tensor_near(const Tensor& actual, const Tensor& expected,
                               float atol = 1e-3f, float rtol = 1e-2f) {
  ASSERT_EQ(actual.numel(), expected.numel());
  for (int64_t i = 0; i < actual.numel(); ++i) {
    const float a = actual[i];
    const float e = expected[i];
    const float tol = atol + rtol * std::abs(e);
    EXPECT_NEAR(a, e, tol) << "at flat index " << i;
  }
}

/// Relative error between two gradients (‖a−b‖/max(‖a‖,‖b‖,eps)); robust for
/// comparing analytic vs numeric gradients where per-element tolerance is too
/// strict for near-zero entries.
inline float relative_error(const Tensor& a, const Tensor& b) {
  Tensor diff = a - b;
  const float na = a.norm(), nb = b.norm();
  const float denom = std::max(std::max(na, nb), 1e-8f);
  return diff.norm() / denom;
}

inline Tensor random_tensor(std::vector<int64_t> shape, Rng& rng,
                            double stddev = 1.0) {
  Tensor t(std::move(shape));
  rng.fill_normal(t, 0.0, stddev);
  return t;
}

// ---- minimal JSON parser (round-trip validation without external deps) -----
//
// Hoisted from telemetry_test.cpp so every artifact-validating test (telemetry
// aggregates, BENCH_scenarios.json schema) shares one parser.

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  // int64 kept separate from double so counter values round-trip exactly.
  std::variant<std::nullptr_t, bool, int64_t, double, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      v;

  bool is_object() const {
    return std::holds_alternative<std::shared_ptr<JsonObject>>(v);
  }
  const JsonObject& object() const {
    return *std::get<std::shared_ptr<JsonObject>>(v);
  }
  const JsonArray& array() const {
    return *std::get<std::shared_ptr<JsonArray>>(v);
  }
  int64_t as_int() const { return std::get<int64_t>(v); }
};

class JsonParser {
 public:
  // Takes the text by value: callers routinely pass freshly-built temporaries
  // (`JsonParser(cell.deterministic_json())`), which a reference member would
  // leave dangling.
  explicit JsonParser(std::string text) : s_(std::move(text)) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing garbage");
    return v;
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  void fail(const std::string& what) {
    if (error_.empty())
      error_ = what + " at offset " + std::to_string(pos_);
    pos_ = s_.size();  // stop consuming
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  char peek() { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  bool consume(char c) {
    skip_ws();
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return JsonValue{string()};
      case 't': return literal("true", JsonValue{true});
      case 'f': return literal("false", JsonValue{false});
      case 'n': return literal("null", JsonValue{nullptr});
      default: return number();
    }
  }

  JsonValue literal(const char* word, JsonValue v) {
    for (const char* p = word; *p != '\0'; ++p)
      if (pos_ >= s_.size() || s_[pos_++] != *p) {
        fail("bad literal");
        return JsonValue{nullptr};
      }
    return v;
  }

  std::string string() {
    std::string out;
    if (!consume('"')) {
      fail("expected string");
      return out;
    }
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) break;
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'u':
            pos_ += 4;  // tests only emit ASCII; skip the code point
            break;
          default: out += esc;
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    else ++pos_;  // closing quote
    return out;
  }

  JsonValue number() {
    const size_t start = pos_;
    bool is_float = false;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      if (s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E')
        is_float = true;
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected number");
      return JsonValue{nullptr};
    }
    const std::string text = s_.substr(start, pos_ - start);
    try {
      if (is_float) return JsonValue{std::stod(text)};
      return JsonValue{static_cast<int64_t>(std::stoll(text))};
    } catch (...) {
      fail("unparseable number: " + text);
      return JsonValue{nullptr};
    }
  }

  JsonValue array() {
    auto arr = std::make_shared<JsonArray>();
    consume('[');
    skip_ws();
    if (consume(']')) return JsonValue{arr};
    for (;;) {
      arr->push_back(value());
      if (consume(']')) break;
      if (!consume(',')) {
        fail("expected , or ] in array");
        break;
      }
    }
    return JsonValue{arr};
  }

  JsonValue object() {
    auto obj = std::make_shared<JsonObject>();
    consume('{');
    skip_ws();
    if (consume('}')) return JsonValue{obj};
    for (;;) {
      skip_ws();
      const std::string key = string();
      if (!consume(':')) {
        fail("expected : after key");
        break;
      }
      (*obj)[key] = value();
      if (consume('}')) break;
      if (!consume(',')) {
        fail("expected , or } in object");
        break;
      }
    }
    return JsonValue{obj};
  }

  const std::string s_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace deco::testing
