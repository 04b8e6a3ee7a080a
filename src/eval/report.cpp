#include "deco/eval/report.h"

#include <cerrno>
#include <cstdlib>
#include <ostream>
#include <sstream>

#include "deco/tensor/check.h"

namespace deco::eval {

MarkdownTable::MarkdownTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  DECO_CHECK(!header_.empty(), "MarkdownTable: empty header");
}

void MarkdownTable::add_row(std::vector<std::string> row) {
  DECO_CHECK(row.size() == header_.size(),
             "MarkdownTable: row width does not match header");
  rows_.push_back(std::move(row));
}

void MarkdownTable::print(std::ostream& os) const {
  auto print_row = [&os](const std::vector<std::string>& cells) {
    os << "|";
    for (const auto& c : cells) os << " " << c << " |";
    os << "\n";
  };
  print_row(header_);
  os << "|";
  for (size_t i = 0; i < header_.size(); ++i) os << "---|";
  os << "\n";
  for (const auto& r : rows_) print_row(r);
}

std::string fmt(double value, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << value;
  return os.str();
}

int64_t env_int(const char* name, int64_t fallback, int64_t min_value) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v, &end, 10);
  DECO_CHECK(end != v && *end == '\0' && errno != ERANGE,
             std::string(name) + " expects an integer, got '" + v + "'");
  DECO_CHECK(parsed >= min_value, std::string(name) + " must be >= " +
                                      std::to_string(min_value) + ", got " + v);
  return static_cast<int64_t>(parsed);
}

std::string env_str(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? fallback : std::string(v);
}

bool full_scale() { return env_str("DECO_BENCH_SCALE", "quick") == "full"; }

}  // namespace deco::eval
