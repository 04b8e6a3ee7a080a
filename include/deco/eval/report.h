// Markdown/CSV reporting helpers shared by the benchmark binaries.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

namespace deco::eval {

/// Simple Markdown table accumulator: set a header once, append rows, print.
class MarkdownTable {
 public:
  explicit MarkdownTable(std::vector<std::string> header);
  void add_row(std::vector<std::string> row);
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a float with fixed precision.
std::string fmt(double value, int precision = 2);

/// Reads an integer environment knob ("DECO_SEEDS", etc.); unset or empty
/// gives `fallback`. A value that is not an integer or is below `min_value`
/// throws deco::Error naming the variable.
int64_t env_int(const char* name, int64_t fallback,
                int64_t min_value = std::numeric_limits<int64_t>::min());
std::string env_str(const char* name, const std::string& fallback);
/// True when DECO_BENCH_SCALE=full — benches then run at larger scale.
bool full_scale();

}  // namespace deco::eval
