// deco_cli — the reproduction's command-line front end.
//
//   deco_cli run     [flags]    single-learner experiment (the classic CLI)
//   deco_cli serve   [flags]    multi-session runtime over one SessionManager
//   deco_cli inspect FILE...    print checkpoint/state headers, no tensor loads
//   deco_cli bench   [flags]    fleet throughput sweep, or (--matrix) the
//                               scenario × method evaluation matrix; exits 1
//                               when a segment goes missing or a matrix gate
//                               (scenario::matrix_failures) fails
//
// Every subcommand accepts `--config FILE` (key=value lines, or *.json) and
// repeated `--set key=value` overrides, routed through runtime::ConfigMap —
// the same loader the benches and examples use. Precedence: --set > --config
// > explicit flags > defaults. `deco_cli <sub> --help` prints the
// subcommand's flags; a leading flag with no subcommand means `run`, so
// pre-subcommand invocations keep working.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "deco/core/learner.h"
#include "deco/core/thread_pool.h"
#include "deco/data/stream.h"
#include "deco/eval/metrics.h"
#include "deco/eval/runner.h"
#include "deco/nn/checkpoint.h"
#include "deco/runtime/config.h"
#include "deco/runtime/fleet.h"
#include "deco/runtime/session.h"
#include "deco/scenario/harness.h"
#include "deco/scenario/scenario.h"
#include "deco/tensor/check.h"
#include "deco/tensor/serialize.h"

using namespace deco;

namespace {

// Collects --config / --set sources in order; build() materializes them into
// one ConfigMap (file entries first, then overrides — later wins).
struct ConfigSources {
  std::string file;
  std::vector<std::string> sets;

  runtime::ConfigMap build() const {
    runtime::ConfigMap m;
    if (!file.empty()) m = runtime::ConfigMap::from_file(file);
    for (const std::string& kv : sets) m.set_kv(kv);
    return m;
  }
};

const char* next_arg(int argc, char** argv, int& i) {
  DECO_CHECK(i + 1 < argc, std::string("flag ") + argv[i] + " needs a value");
  return argv[++i];
}

// ---- run --------------------------------------------------------------------

struct RunOptions {
  std::string method = "deco";
  std::string dataset = "core50";
  int64_t ipc = 10;
  int64_t segments = 10;
  int64_t segment_size = 32;
  int64_t stc = 32;
  int64_t seeds = 1;
  uint64_t seed = 1;
  int64_t epochs = 10;       // model-update epochs
  int64_t beta = 10;
  float alpha = 0.1f;
  float threshold_m = 0.4f;
  int64_t iterations = 10;   // matching iterations L
  int64_t eval_every = 0;
  int64_t width = 32;
  int64_t depth = 3;
  std::string dump_buffer;   // directory for PPM dumps of the buffer
  std::string save_model;    // checkpoint path
  ConfigSources config;
};

void print_run_help() {
  std::string methods;
  for (const std::string& m : runtime::session_methods())
    methods += (methods.empty() ? "" : " | ") + m;
  std::printf(
      "deco_cli run — single-learner experiment\n\n"
      "  --method M       %s\n"
      "                   (default deco)\n"
      "  --dataset D      icub1 | core50 | cifar100 | imagenet10 | cifar10\n"
      "  --ipc N          synthetic/real images per class     (default 10)\n"
      "  --segments N     stream length in segments           (default 10)\n"
      "  --segment-size N samples per segment                 (default 32)\n"
      "  --stc N          temporal correlation strength       (default 32)\n"
      "  --seeds N        repeat with N seeds, report mean±std (default 1)\n"
      "  --seed N         base RNG seed                       (default 1)\n"
      "  --epochs N       model-update epochs (opt_theta)     (default 10)\n"
      "  --beta N         model update interval, segments     (default 10)\n"
      "  --alpha F        feature-discrimination weight       (default 0.1)\n"
      "  --threshold F    majority-voting threshold m         (default 0.4)\n"
      "  --iterations N   matching iterations L               (default 10)\n"
      "  --eval-every N   record a learning-curve point every N segments\n"
      "  --width N        ConvNet width                       (default 32)\n"
      "  --depth N        ConvNet conv blocks                 (default 3)\n"
      "  --dump-buffer DIR  write the final synthetic buffer as PPM images\n"
      "  --save-model PATH  write the final model checkpoint\n"
      "  --config FILE    key=value (or .json) config file: deco.*, stream.*\n"
      "  --set key=value  single config override (repeatable)\n",
      methods.c_str());
}

bool parse_run_args(int argc, char** argv, int first, RunOptions& opt) {
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&] { return next_arg(argc, argv, i); };
    if (a == "--help" || a == "-h") return false;
    else if (a == "--method") opt.method = next();
    else if (a == "--dataset") opt.dataset = next();
    else if (a == "--ipc") opt.ipc = std::atoll(next());
    else if (a == "--segments") opt.segments = std::atoll(next());
    else if (a == "--segment-size") opt.segment_size = std::atoll(next());
    else if (a == "--stc") opt.stc = std::atoll(next());
    else if (a == "--seeds") opt.seeds = std::atoll(next());
    else if (a == "--seed") opt.seed = std::strtoull(next(), nullptr, 10);
    else if (a == "--epochs") opt.epochs = std::atoll(next());
    else if (a == "--beta") opt.beta = std::atoll(next());
    else if (a == "--alpha") opt.alpha = std::atof(next());
    else if (a == "--threshold") opt.threshold_m = std::atof(next());
    else if (a == "--iterations") opt.iterations = std::atoll(next());
    else if (a == "--eval-every") opt.eval_every = std::atoll(next());
    else if (a == "--width") opt.width = std::atoll(next());
    else if (a == "--depth") opt.depth = std::atoll(next());
    else if (a == "--dump-buffer") opt.dump_buffer = next();
    else if (a == "--save-model") opt.save_model = next();
    else if (a == "--config") opt.config.file = next();
    else if (a == "--set") opt.config.sets.push_back(next());
    else DECO_CHECK(false, "unknown flag '" + a + "' (see deco_cli run --help)");
  }
  return true;
}

int cmd_run(int argc, char** argv, int first) {
  RunOptions opt;
  if (!parse_run_args(argc, argv, first, opt)) {
    print_run_help();
    return 0;
  }
  runtime::ConfigMap cm = opt.config.build();
  if (!opt.dump_buffer.empty() || !opt.save_model.empty()) {
    DECO_CHECK(opt.method == "deco",
               "--dump-buffer/--save-model require --method deco");
    DECO_CHECK(opt.seeds == 1,
               "--dump-buffer/--save-model write one run; use --seeds 1");
  }

  eval::RunConfig cfg;
  cfg.method = opt.method;
  cfg.spec = scenario::dataset_spec_by_name(opt.dataset);
  cfg.stream.stc = opt.stc;
  cfg.stream.segment_size = opt.segment_size;
  cfg.stream.total_segments = opt.segments;
  cfg.stream.video_mode =
      opt.dataset == "icub1" || opt.dataset == "core50" ||
      opt.dataset == "cifar10";
  cfg.deco.ipc = opt.ipc;
  cfg.deco.beta = opt.beta;
  cfg.deco.model_update_epochs = opt.epochs;
  cfg.deco.threshold_m = opt.threshold_m;
  cfg.deco.condenser.alpha = opt.alpha;
  cfg.deco.condenser.iterations = opt.iterations;
  cfg.model_width = opt.width;
  cfg.model_depth = opt.depth;
  cfg.eval_every_segments = opt.eval_every;
  cfg.seed = opt.seed;
  cfg.pretrain_per_class = opt.dataset == "cifar100" ? 10 : 6;
  cm.apply(cfg.deco);
  cm.apply(cfg.stream);
  cm.check_fully_consumed();

  // Artifacts come from the finished learner of the (single) run.
  auto write_artifacts = [&](core::OnDeviceLearner& learner) {
    if (!opt.dump_buffer.empty()) {
      auto& buf = dynamic_cast<core::DecoLearner&>(learner).buffer();
      for (int64_t r = 0; r < buf.size(); ++r) {
        Tensor img = buf.gather({r}).reshaped(
            {cfg.spec.channels, cfg.spec.height, cfg.spec.width});
        const std::string path = opt.dump_buffer + "/class" +
                                 std::to_string(buf.label(r)) + "_slot" +
                                 std::to_string(r % buf.ipc()) + ".ppm";
        write_ppm(path, img);
      }
      std::printf("wrote %lld synthetic images to %s\n",
                  static_cast<long long>(buf.size()), opt.dump_buffer.c_str());
    }
    if (!opt.save_model.empty()) {
      nn::save_checkpoint(opt.save_model, learner.model());
      std::printf("saved model checkpoint to %s\n", opt.save_model.c_str());
    }
  };

  std::vector<float> finals;
  for (int64_t s = 0; s < opt.seeds; ++s) {
    cfg.seed = opt.seed + static_cast<uint64_t>(s);
    const auto res = eval::run_experiment(cfg, write_artifacts);
    std::printf("seed %llu: pretrain %.2f%% -> final %.2f%%  "
                "(pseudo-label acc %.1f%%, retained %.1f%%, condense %.1fs)\n",
                static_cast<unsigned long long>(cfg.seed),
                res.pretrain_accuracy, res.final_accuracy,
                100.0 * res.pseudo_label_accuracy,
                100.0 * res.retention_rate, res.condense_seconds);
    for (const auto& pt : res.curve)
      std::printf("  curve: %lld samples -> %.2f%%\n",
                  static_cast<long long>(pt.samples_seen), pt.accuracy);
    finals.push_back(res.final_accuracy);
  }
  if (opt.seeds > 1) {
    const auto agg = eval::aggregate(finals);
    std::printf("final over %lld seeds: %s\n",
                static_cast<long long>(opt.seeds),
                eval::format_aggregate(agg).c_str());
  }
  return 0;
}

// ---- serve ------------------------------------------------------------------

struct ServeOptions {
  int64_t sessions = 4;
  std::string dataset = "core50";
  int64_t segments = 8;
  int64_t segment_size = 16;
  int64_t stc = 16;
  uint64_t seed = 1;
  ConfigSources config;
};

void print_serve_help() {
  std::printf(
      "deco_cli serve — run N learner sessions through the multi-session\n"
      "runtime (bounded ingest queues, deficit-round-robin scheduling over\n"
      "the shared thread pool)\n\n"
      "  --sessions N     concurrent learner sessions        (default 4)\n"
      "  --dataset D      icub1 | core50 | cifar100 | imagenet10 | cifar10\n"
      "  --segments N     stream length per session          (default 8)\n"
      "  --segment-size N samples per segment                (default 16)\n"
      "  --stc N          temporal correlation strength      (default 16)\n"
      "  --seed N         base RNG seed                      (default 1)\n"
      "  --config FILE    key=value (or .json) config file\n"
      "  --set key=value  single override (repeatable)\n\n"
      "config keys: deco.* (learner), stream.* (per-session stream), and\n"
      "runtime.queue_depth | runtime.overflow (block|shed_oldest) |\n"
      "runtime.quantum | runtime.max_deficit | runtime.checkpoint_every |\n"
      "runtime.checkpoint_dir | runtime.quarantine_after |\n"
      "runtime.pool_budget_mb | runtime.keep_reports |\n"
      "runtime.checkpoint_dtype (fp32|fp16|int8)\n"
      "storage keys: deco.cache_dtype (fp32|fp16|int8, condensed cache\n"
      "stored quantized) | deco.quant_block\n");
}

int cmd_serve(int argc, char** argv, int first) {
  ServeOptions opt;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&] { return next_arg(argc, argv, i); };
    if (a == "--help" || a == "-h") {
      print_serve_help();
      return 0;
    }
    else if (a == "--sessions") opt.sessions = std::atoll(next());
    else if (a == "--dataset") opt.dataset = next();
    else if (a == "--segments") opt.segments = std::atoll(next());
    else if (a == "--segment-size") opt.segment_size = std::atoll(next());
    else if (a == "--stc") opt.stc = std::atoll(next());
    else if (a == "--seed") opt.seed = std::strtoull(next(), nullptr, 10);
    else if (a == "--config") opt.config.file = next();
    else if (a == "--set") opt.config.sets.push_back(next());
    else DECO_CHECK(false,
                    "unknown flag '" + a + "' (see deco_cli serve --help)");
  }

  runtime::FleetConfig fc;
  fc.sessions = opt.sessions;
  fc.spec = scenario::dataset_spec_by_name(opt.dataset);
  fc.stream.stc = opt.stc;
  fc.stream.segment_size = opt.segment_size;
  fc.stream.total_segments = opt.segments;
  fc.seed = opt.seed;
  // Serve-scale learner defaults: small matcher budget, frequent updates.
  fc.deco.model_update_epochs = 4;
  fc.deco.beta = 4;
  fc.deco.condenser.iterations = 4;

  runtime::ConfigMap cm = opt.config.build();
  cm.apply(fc.deco);
  cm.apply(fc.stream);
  cm.apply(fc.runtime);
  cm.check_fully_consumed();

  runtime::Fleet fleet(fc);
  std::printf("serving %lld sessions (queue depth %lld, %s overflow)...\n",
              static_cast<long long>(fc.sessions),
              static_cast<long long>(fc.runtime.queue_depth),
              runtime::overflow_policy_name(fc.runtime.overflow).c_str());
  const runtime::FleetResult res = fleet.run();

  std::printf("\n%-10s %-12s %9s %7s %6s %9s %11s\n", "session", "state",
              "processed", "failed", "shed", "maxdepth", "checkpoints");
  for (const runtime::SessionStatus& s : res.sessions) {
    std::printf("%-10s %-12s %9lld %7lld %6lld %9lld %11lld\n",
                s.name.c_str(), runtime::session_state_name(s.state).c_str(),
                static_cast<long long>(s.segments_processed),
                static_cast<long long>(s.segments_failed),
                static_cast<long long>(s.queue.shed),
                static_cast<long long>(s.queue.max_depth),
                static_cast<long long>(s.checkpoints_written));
    if (!s.last_error.empty())
      std::printf("           last error: %s\n", s.last_error.c_str());
  }
  std::printf("\n%lld segments in %.2fs  (%.2f segments/s)\n",
              static_cast<long long>(res.segments_processed), res.seconds,
              res.segments_per_second);
  return 0;
}

// ---- inspect ----------------------------------------------------------------

void print_inspect_help() {
  std::printf(
      "deco_cli inspect FILE...  — print the header and per-tensor metadata\n"
      "of DECO binary files without loading any tensor payload:\n"
      "  *.ckpt model checkpoints   (DECOCKPT)\n"
      "  learner state files        (DECOLSAV, save_state output)\n"
      "  single-tensor files        (DECOTNSR, save_tensor output)\n");
}

std::string shape_str(const std::vector<int64_t>& shape) {
  std::string s = "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(shape[i]);
  }
  return s + "]";
}

// Suffix describing a v3 record's storage: dtype, quant block and the
// compression ratio vs f32. Empty for v1/v2 records so legacy files print
// exactly as they always did.
std::string dtype_suffix(const TensorInfo& info) {
  if (info.version < 3) return "";
  std::string s = ", dtype ";
  s += dtype_name(info.dtype);
  if (info.dtype == DType::kQ8)
    s += ", block " + std::to_string(info.block);
  if (info.payload_bytes > 0 && info.numel > 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), ", %.2fx vs f32",
                  static_cast<double>(info.numel) * 4.0 /
                      static_cast<double>(info.payload_bytes));
    s += buf;
  }
  return s;
}

void inspect_checkpoint(std::istream& is) {
  const std::vector<nn::ParamInfo> params = nn::read_checkpoint_info(is);
  std::printf("  model checkpoint (DECOCKPT), %zu parameters\n", params.size());
  int64_t total = 0;
  for (const nn::ParamInfo& p : params) {
    total += p.tensor.numel;
    std::printf("    %-28s %-20s %10lld floats (v%u%s)\n", p.name.c_str(),
                shape_str(p.tensor.shape).c_str(),
                static_cast<long long>(p.tensor.numel), p.tensor.version,
                dtype_suffix(p.tensor).c_str());
  }
  std::printf("  total: %lld parameters (%.2f MiB as f32)\n",
              static_cast<long long>(total),
              static_cast<double>(total) * 4.0 / (1 << 20));
}

void inspect_learner_state(std::istream& is) {
  const core::StateInfo st = core::read_state_info(is);
  std::printf("  learner state (DECOLSAV v%u), %lld segments seen\n",
              st.version, static_cast<long long>(st.segments_seen));
  int64_t total = 0;
  std::printf("  %zu model parameters:\n", st.params.size());
  for (const nn::ParamInfo& p : st.params) {
    total += p.tensor.numel;
    std::printf("    %-28s %-20s %10lld floats%s\n", p.name.c_str(),
                shape_str(p.tensor.shape).c_str(),
                static_cast<long long>(p.tensor.numel),
                dtype_suffix(p.tensor).c_str());
  }
  std::printf("  synthetic buffer: %s%s\n", shape_str(st.buffer.shape).c_str(),
              dtype_suffix(st.buffer).c_str());
  if (st.soft_labels)
    std::printf("  soft-label logits: %s\n", shape_str(st.logits.shape).c_str());
  else
    std::printf("  soft labels: off\n");
  std::printf("  condenser: %s (%lld bytes of state), CRC32 trailer present\n",
              st.condenser.c_str(), static_cast<long long>(st.condenser_bytes));
  std::printf("  model total: %lld parameters (%.2f MiB as f32)\n",
              static_cast<long long>(total),
              static_cast<double>(total) * 4.0 / (1 << 20));
}

int cmd_inspect(int argc, char** argv, int first) {
  std::vector<std::string> files;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      print_inspect_help();
      return 0;
    }
    DECO_CHECK(a.rfind("--", 0) != 0,
               "unknown flag '" + a + "' (see deco_cli inspect --help)");
    files.push_back(a);
  }
  if (files.empty()) {
    print_inspect_help();
    return 1;
  }
  for (const std::string& path : files) {
    std::ifstream is(path, std::ios::binary);
    DECO_CHECK(is.is_open(), "inspect: cannot open " + path);
    is.seekg(0, std::ios::end);
    const int64_t file_bytes = static_cast<int64_t>(is.tellg());
    is.seekg(0);
    const std::string magic = read_magic(is);
    DECO_CHECK(magic.size() == 8, "inspect: " + path + " is too small");
    std::printf("%s  (%lld bytes)\n", path.c_str(),
                static_cast<long long>(file_bytes));
    is.seekg(0);  // each reader checks the magic itself
    if (magic == "DECOCKPT") {
      inspect_checkpoint(is);
    } else if (magic == "DECOLSAV") {
      inspect_learner_state(is);
    } else if (magic == "DECOTNSR") {
      const TensorInfo info = skip_tensor(is);
      std::printf("  tensor (DECOTNSR v%u): %s, %lld floats, %lld payload "
                  "bytes%s%s\n",
                  info.version, shape_str(info.shape).c_str(),
                  static_cast<long long>(info.numel),
                  static_cast<long long>(info.payload_bytes),
                  dtype_suffix(info).c_str(),
                  info.version >= 2 ? ", CRC32 trailer" : "");
    } else {
      DECO_CHECK(false, "inspect: " + path +
                            " is not a DECO binary file (unknown magic)");
    }
  }
  return 0;
}

// ---- bench ------------------------------------------------------------------

void print_bench_help() {
  std::printf(
      "deco_cli bench — fleet throughput sweep, or the evaluation matrix\n"
      "Exits 1 when a session loses segments or a matrix gate fails.\n\n"
      "throughput sweep (default):\n"
      "  --sessions LIST  comma-separated counts (default 1,2,4)\n"
      "  --segments N     stream length per session          (default 6)\n"
      "  --seed N         base RNG seed                      (default 1)\n"
      "  --json PATH      also write the sweep as JSON\n"
      "  --config FILE / --set key=value   same keys as serve\n\n"
      "scenario evaluation matrix (--matrix):\n"
      "  --matrix         run scenario x method cells through the harness\n"
      "  --scenarios LIST comma-separated scenario names  (default: all)\n"
      "  --methods LIST   comma-separated method names    (default: all)\n"
      "  --segments N     per-session stream length override\n"
      "  --seed N         cell seed                       (default 1)\n"
      "  --out PATH       report path (default BENCH_scenarios.json)\n");
}

std::vector<std::string> split_names(const std::string& list) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    if (comma > pos) out.push_back(list.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

int cmd_bench_matrix(int argc, char** argv, int first) {
  scenario::HarnessOptions options;
  std::vector<std::string> wanted_scenarios, methods;
  std::string out_path = "BENCH_scenarios.json";
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&] { return next_arg(argc, argv, i); };
    if (a == "--matrix") continue;
    if (a == "--help" || a == "-h") {
      print_bench_help();
      return 0;
    }
    else if (a == "--scenarios") wanted_scenarios = split_names(next());
    else if (a == "--methods") methods = split_names(next());
    else if (a == "--segments") options.segments = std::atoll(next());
    else if (a == "--seed") options.seed = std::strtoull(next(), nullptr, 10);
    else if (a == "--out") out_path = next();
    else DECO_CHECK(false, "unknown flag '" + a +
                               "' for bench --matrix (see deco_cli bench "
                               "--help)");
  }

  std::vector<scenario::ScenarioSpec> scenarios;
  if (wanted_scenarios.empty()) {
    scenarios = scenario::builtin_scenarios();
  } else {
    for (const std::string& n : wanted_scenarios)
      scenarios.push_back(scenario::scenario_by_name(n));
  }
  if (methods.empty()) methods = scenario::builtin_methods();

  scenario::MatrixReport report;
  report.seed = options.seed;
  report.threads = core::num_threads();
  std::printf("%-18s %-13s %8s %8s %6s %9s\n", "scenario", "method", "acc",
              "forget", "shed", "seconds");
  for (const scenario::ScenarioSpec& spec : scenarios) {
    for (const std::string& method : methods) {
      scenario::CellResult cell = scenario::run_cell(spec, method, options);
      std::printf("%-18s %-13s %8.2f %8.2f %6lld %9.2f\n",
                  cell.scenario.c_str(), cell.method.c_str(), cell.accuracy,
                  cell.forgetting, static_cast<long long>(cell.segments_shed),
                  cell.wall_seconds);
      std::fflush(stdout);
      report.cells.push_back(std::move(cell));
    }
  }
  scenario::write_matrix_json(report, out_path);
  std::printf("wrote %s (%zu cells)\n", out_path.c_str(),
              report.cells.size());
  const std::vector<std::string> failures = scenario::matrix_failures(report);
  for (const std::string& f : failures) std::printf("FAIL: %s\n", f.c_str());
  std::printf("matrix gates: %s\n", failures.empty() ? "PASS" : "FAIL");
  return failures.empty() ? 0 : 1;
}

int cmd_bench(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    if (std::string(argv[i]) == "--matrix")
      return cmd_bench_matrix(argc, argv, first);
  }
  std::vector<int64_t> sessions = {1, 2, 4};
  int64_t segments = 6;
  uint64_t seed = 1;
  std::string json_path;
  ConfigSources config;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&] { return next_arg(argc, argv, i); };
    if (a == "--help" || a == "-h") {
      print_bench_help();
      return 0;
    } else if (a == "--sessions") {
      sessions.clear();
      for (const std::string& n : split_names(next()))
        sessions.push_back(std::atoll(n.c_str()));
      DECO_CHECK(!sessions.empty(), "--sessions needs at least one count");
    }
    else if (a == "--segments") segments = std::atoll(next());
    else if (a == "--seed") seed = std::strtoull(next(), nullptr, 10);
    else if (a == "--json") json_path = next();
    else if (a == "--config") config.file = next();
    else if (a == "--set") config.sets.push_back(next());
    else DECO_CHECK(false,
                    "unknown flag '" + a + "' (see deco_cli bench --help)");
  }

  int failures = 0;
  std::string json = "{\n  \"sweep\": [\n";
  std::printf("%9s %10s %12s %14s\n", "sessions", "segments", "seconds",
              "segments/s");
  for (size_t i = 0; i < sessions.size(); ++i) {
    runtime::FleetConfig fc;
    fc.sessions = sessions[i];
    fc.spec = scenario::dataset_spec_by_name("core50");
    fc.stream.stc = 16;
    fc.stream.segment_size = 16;
    fc.stream.total_segments = segments;
    fc.seed = seed;
    fc.deco.model_update_epochs = 2;
    fc.deco.beta = 4;
    fc.deco.condenser.iterations = 2;
    runtime::ConfigMap cm = config.build();
    cm.apply(fc.deco);
    cm.apply(fc.stream);
    cm.apply(fc.runtime);
    cm.check_fully_consumed();

    runtime::Fleet fleet(fc);
    const runtime::FleetResult res = fleet.run();
    std::printf("%9lld %10lld %12.3f %14.2f\n",
                static_cast<long long>(sessions[i]),
                static_cast<long long>(res.segments_processed), res.seconds,
                res.segments_per_second);
    // Every submitted segment is either processed or shed; anything else is
    // a session that lost work.
    const int64_t expected = sessions[i] * fc.stream.total_segments;
    int64_t accounted = 0;
    for (const runtime::SessionStatus& st : res.sessions)
      accounted += st.segments_processed + st.queue.shed;
    if (accounted != expected) {
      std::printf("FAIL: %lld sessions accounted for %lld segments, "
                  "expected %lld\n",
                  static_cast<long long>(sessions[i]),
                  static_cast<long long>(accounted),
                  static_cast<long long>(expected));
      ++failures;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"sessions\": %lld, \"segments\": %lld, "
                  "\"seconds\": %.4f, \"segments_per_second\": %.3f}%s\n",
                  static_cast<long long>(sessions[i]),
                  static_cast<long long>(res.segments_processed), res.seconds,
                  res.segments_per_second,
                  i + 1 < sessions.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    DECO_CHECK(os.is_open(), "bench: cannot open " + json_path);
    os << json;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return failures == 0 ? 0 : 1;
}

// ---- dispatch ---------------------------------------------------------------

void print_main_help() {
  std::printf(
      "deco_cli — on-device learning via dataset condensation\n\n"
      "  deco_cli run     [flags]   single-learner experiment\n"
      "  deco_cli serve   [flags]   multi-session learner runtime\n"
      "  deco_cli inspect FILE...   checkpoint/state headers, no tensor loads\n"
      "  deco_cli bench   [flags]   throughput sweep; --matrix runs the\n"
      "                             scenario evaluation matrix\n\n"
      "`deco_cli <subcommand> --help` lists that subcommand's flags.\n"
      "Flags with no subcommand run `run` (pre-subcommand compatibility).\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      print_main_help();
      return 0;
    }
    const std::string cmd = argv[1];
    if (cmd == "run") return cmd_run(argc, argv, 2);
    if (cmd == "serve") return cmd_serve(argc, argv, 2);
    if (cmd == "inspect") return cmd_inspect(argc, argv, 2);
    if (cmd == "bench") return cmd_bench(argc, argv, 2);
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
      const std::string topic = argc > 2 ? argv[2] : "";
      if (topic == "run") print_run_help();
      else if (topic == "serve") print_serve_help();
      else if (topic == "inspect") print_inspect_help();
      else if (topic == "bench") print_bench_help();
      else print_main_help();
      return 0;
    }
    // Legacy spelling: a leading flag means `run`.
    if (cmd.rfind("-", 0) == 0) return cmd_run(argc, argv, 1);
    DECO_CHECK(false, "unknown subcommand '" + cmd + "' (see --help)");
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
