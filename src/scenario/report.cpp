#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "deco/scenario/harness.h"
#include "deco/tensor/check.h"

namespace deco::scenario {

namespace {

// Fixed-width formatting keeps the document byte-stable across runs: the
// determinism tests memcmp whole JSON cells, so "%g"-style shortest-round-trip
// output (which can differ by libc) is off the table.
std::string fixed6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

std::string cell_fields(const CellResult& c, bool with_wall) {
  std::string out;
  out += "\"scenario\": " + quoted(c.scenario);
  out += ", \"method\": " + quoted(c.method);
  out += ", \"sessions\": " + std::to_string(c.sessions);
  out += ", \"sessions_admitted\": " + std::to_string(c.sessions_admitted);
  out += ", \"cache_dtype\": " + quoted(c.cache_dtype);
  out += ", \"cache_stored_bytes\": " + std::to_string(c.cache_stored_bytes);
  out += ", \"cache_logical_bytes\": " + std::to_string(c.cache_logical_bytes);
  out += ", \"segments_submitted\": " + std::to_string(c.segments_submitted);
  out += ", \"segments_processed\": " + std::to_string(c.segments_processed);
  out += ", \"segments_shed\": " + std::to_string(c.segments_shed);
  out += ", \"accuracy\": " + fixed6(c.accuracy);
  out += ", \"forgetting\": " + fixed6(c.forgetting);
  out += ", \"pseudo_label_accuracy\": " + fixed6(c.pseudo_label_accuracy);
  out += ", \"peak_pool_bytes\": " + std::to_string(c.peak_pool_bytes);
  if (with_wall) out += ", \"wall_seconds\": " + fixed6(c.wall_seconds);
  return out;
}

std::string cell_name(const CellResult& c) {
  return c.scenario + "/" + c.method;
}

}  // namespace

std::string CellResult::deterministic_json() const {
  return "{" + cell_fields(*this, /*with_wall=*/false) + "}";
}

std::string matrix_json(const MatrixReport& report) {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"deco.bench_scenarios.v2\",\n";
  out += "  \"seed\": " + std::to_string(report.seed) + ",\n";
  out += "  \"threads\": " + std::to_string(report.threads) + ",\n";
  out += "  \"cells\": [\n";
  for (size_t i = 0; i < report.cells.size(); ++i) {
    out += "    {" + cell_fields(report.cells[i], /*with_wall=*/true) + "}";
    out += i + 1 < report.cells.size() ? ",\n" : "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

void write_matrix_json(const MatrixReport& report, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  DECO_CHECK(os.is_open(), "scenario: cannot open " + path + " for writing");
  os << matrix_json(report);
  DECO_CHECK(os.good(), "scenario: short write to " + path);
}

std::vector<std::string> matrix_failures(const MatrixReport& report) {
  std::vector<std::string> out;
  char buf[256];
  for (const CellResult& c : report.cells) {
    if (!std::isfinite(c.accuracy) || !std::isfinite(c.forgetting))
      out.push_back(cell_name(c) + ": non-finite accuracy or forgetting");
    if (c.segments_processed + c.segments_shed != c.segments_submitted) {
      std::snprintf(buf, sizeof(buf),
                    ": lost %lld segments (submitted %lld, processed %lld, "
                    "shed %lld)",
                    static_cast<long long>(c.segments_submitted -
                                           c.segments_processed -
                                           c.segments_shed),
                    static_cast<long long>(c.segments_submitted),
                    static_cast<long long>(c.segments_processed),
                    static_cast<long long>(c.segments_shed));
      out.push_back(cell_name(c) + buf);
    }
  }
  for (const CellResult& f32 : report.cells) {
    if (f32.scenario != "mem_pressure_fp32") continue;
    for (const CellResult& q8 : report.cells) {
      if (q8.scenario != "mem_pressure_int8" || q8.method != f32.method)
        continue;
      const double ratio =
          q8.cache_stored_bytes > 0
              ? static_cast<double>(q8.cache_logical_bytes) /
                    static_cast<double>(q8.cache_stored_bytes)
              : 0.0;
      if (ratio < 3.5) {
        std::snprintf(buf, sizeof(buf), ": cache compression %.3fx < 3.5x",
                      ratio);
        out.push_back(cell_name(q8) + buf);
      }
      if (q8.sessions_admitted < f32.sessions_admitted) {
        std::snprintf(buf, sizeof(buf),
                      ": admitted %lld sessions < fp32's %lld",
                      static_cast<long long>(q8.sessions_admitted),
                      static_cast<long long>(f32.sessions_admitted));
        out.push_back(cell_name(q8) + buf);
      }
      const float delta = std::abs(q8.accuracy - f32.accuracy);
      if (delta > 20.0f) {
        std::snprintf(buf, sizeof(buf),
                      ": accuracy %.2f is %.2f points from fp32's %.2f (> 20)",
                      q8.accuracy, delta, f32.accuracy);
        out.push_back(cell_name(q8) + buf);
      }
    }
  }
  return out;
}

}  // namespace deco::scenario
