// Fault-tolerance sweep: how much accuracy survives a faulty sensor pipeline,
// with and without the numeric-health guards.
//
// The stream is wrapped in a FaultyStream (deco/data/faults.h) at increasing
// severity — from a few stuck pixels up to heavy corruption with NaN/Inf
// bursts, dropped frames and truncated segments — and the same seeds run with
// guards enabled and disabled (common random numbers: the injector draws from
// its own rng, so every cell of the table sees the identical stream).
//
// Expected shape: the clean rows match (guards are designed to be inert on
// healthy data); under NaN/Inf injection the unguarded learner's buffer and
// model are poisoned (accuracy collapses toward chance) while the guarded
// learner quarantines the bad frames and stays near its clean accuracy.
//
// Output: Markdown table on stdout and in results/fault_tolerance.md.
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench_util.h"

using namespace deco;

namespace {

struct Severity {
  const char* name;
  data::FaultConfig faults;
};

std::vector<Severity> severities() {
  std::vector<Severity> out;
  out.push_back({"clean", {}});

  data::FaultConfig mild;
  mild.dead_pixel_rate = 0.001;
  mild.hot_pixel_rate = 0.001;
  mild.drop_frame_rate = 0.01;
  out.push_back({"mild", mild});

  data::FaultConfig moderate;
  moderate.dead_pixel_rate = 0.005;
  moderate.hot_pixel_rate = 0.005;
  moderate.salt_pepper_rate = 0.01;
  moderate.overexpose_rate = 0.02;
  moderate.underexpose_rate = 0.02;
  moderate.drop_frame_rate = 0.03;
  moderate.duplicate_frame_rate = 0.03;
  moderate.nan_burst_rate = 0.02;
  out.push_back({"moderate", moderate});

  // The ISSUE's acceptance scenario: ~5% corrupt frames plus NaN bursts.
  data::FaultConfig severe;
  severe.dead_pixel_rate = 0.01;
  severe.hot_pixel_rate = 0.01;
  severe.salt_pepper_rate = 0.02;
  severe.overexpose_rate = 0.05;
  severe.underexpose_rate = 0.05;
  severe.drop_frame_rate = 0.05;
  severe.duplicate_frame_rate = 0.05;
  severe.truncate_rate = 0.1;
  severe.nan_burst_rate = 0.05;
  severe.inf_burst_rate = 0.02;
  out.push_back({"severe", severe});
  return out;
}

}  // namespace

int main() {
  bench::print_scale_banner("Fault tolerance — accuracy under sensor faults");
  const bench::BenchScale s = bench::scale();

  eval::RunConfig base = bench::base_config(data::core50_spec(), s);
  base.method = "deco";
  base.deco.ipc = 5;

  eval::MarkdownTable table(
      {"severity", "guards", "final acc %", "quarantined", "rolled back",
       "batches skipped", "grads clipped", "injected faults"});

  for (const Severity& sev : severities()) {
    for (bool guarded : {true, false}) {
      eval::RunConfig cfg = base;
      cfg.faults = sev.faults;
      cfg.deco.guard.enabled = guarded;
      const auto results = eval::run_seeds(cfg, s.seeds);
      double acc = 0.0;
      int64_t quarantined = 0, rolled = 0, batches = 0, clipped = 0,
              injected = 0;
      for (const auto& r : results) {
        acc += r.final_accuracy;
        quarantined += r.frames_quarantined;
        rolled += r.steps_rolled_back;
        batches += r.batches_skipped;
        clipped += r.grads_clipped;
        injected += r.faults.total_faults();
      }
      const double n = static_cast<double>(results.size());
      table.add_row({sev.name, guarded ? "on" : "off",
                     eval::fmt(acc / n, 2), std::to_string(quarantined),
                     std::to_string(rolled), std::to_string(batches),
                     std::to_string(clipped), std::to_string(injected)});
      std::cout << "." << std::flush;
    }
  }
  std::cout << "\n\n";
  table.print(std::cout);

  std::filesystem::create_directories("results");
  std::ofstream md("results/fault_tolerance.md");
  md << "# Fault tolerance: DECO under sensor faults\n\n"
     << "Final accuracy (mean over seeds) as injected sensor-fault severity\n"
     << "increases, with the numeric-health guards on vs. off. Every cell\n"
     << "replays the identical stream (the injector uses its own rng).\n\n";
  table.print(md);
  std::cout << "\nwrote results/fault_tolerance.md\n";
  return 0;
}
