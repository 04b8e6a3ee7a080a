// Shared configuration for the benchmark binaries that regenerate the paper's
// tables and figures.
//
// Every bench runs in one of two scales:
//   * quick (default): sized so the whole suite finishes in minutes on one
//     CPU core — shorter streams, fewer model-update epochs, 2 seeds.
//   * full (DECO_BENCH_SCALE=full): longer streams, more epochs, 5 seeds —
//     closer to the paper's protocol (which ran 200-epoch updates on GPUs).
//
// Environment knobs:
//   DECO_BENCH_SCALE = quick | full
//   DECO_SEEDS       = override the seed count
//   DECO_SEGMENTS    = override the stream length (segments)
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "deco/eval/report.h"
#include "deco/eval/runner.h"

namespace deco::bench {

struct BenchScale {
  int64_t seeds;
  int64_t segments;
  int64_t segment_size;
  int64_t model_update_epochs;
  int64_t pretrain_epochs;
  int64_t test_per_class;
};

inline BenchScale scale() {
  BenchScale s;
  if (eval::full_scale()) {
    s.seeds = eval::env_int("DECO_SEEDS", 5, 1);
    s.segments = eval::env_int("DECO_SEGMENTS", 60, 1);
    s.segment_size = 32;
    s.model_update_epochs = 60;
    s.pretrain_epochs = 40;
    s.test_per_class = 40;
  } else {
    s.seeds = eval::env_int("DECO_SEEDS", 2, 1);
    s.segments = eval::env_int("DECO_SEGMENTS", 8, 1);
    s.segment_size = 32;
    s.model_update_epochs = 10;
    s.pretrain_epochs = 30;
    s.test_per_class = 25;
  }
  return s;
}

/// Baseline RunConfig for a dataset, with the paper's hyper-parameters
/// (m = 0.4, L = 10, α = 0.1, τ = 0.07, β = 10) and scaled protocol knobs.
inline eval::RunConfig base_config(const data::DatasetSpec& spec,
                                   const BenchScale& s) {
  eval::RunConfig cfg;
  cfg.spec = spec;
  cfg.stream.segment_size = s.segment_size;
  cfg.stream.total_segments = s.segments;
  cfg.deco.model_update_epochs = s.model_update_epochs;
  // β = 10 segments at full scale (paper setting); at quick scale the stream
  // is short, so β is chosen to give two model updates per run.
  const int64_t beta =
      eval::full_scale() ? 10 : std::max<int64_t>(2, s.segments / 2);
  cfg.deco.beta = beta;
  cfg.pretrain_epochs = s.pretrain_epochs;
  cfg.test_per_class = s.test_per_class;
  cfg.seed = 1;

  // Streaming setup per dataset, following Section IV-A1: iCub1/CORe50 are
  // contiguous-video streams; CIFAR/ImageNet proxies use STC-controlled
  // streams (paper: 500 / 100, scaled to our shorter streams).
  // Pre-training sizes follow the paper's labeled fractions (1% of CORe50 ≈
  // 120 images/class — far more than a handful): enough that pseudo-labels
  // reach the regime where majority voting operates as designed. With very
  // weak pre-training (<10 images/class here), pseudo-label noise >50% makes
  // large REAL-sample buffers toxic for the selection baselines — a failure
  // mode the paper's setting does not exhibit.
  if (spec.name == "icub1" || spec.name == "core50") {
    cfg.stream.video_mode = true;
    cfg.stream.stc = 32;
    cfg.pretrain_per_class = 10;
  } else if (spec.name == "cifar100") {
    cfg.stream.video_mode = false;
    cfg.stream.stc = 64;          // highest temporal correlation (paper: 500)
    cfg.pretrain_per_class = 12;  // 10%-labeled regime for many classes
  } else if (spec.name == "imagenet10") {
    cfg.stream.video_mode = false;
    cfg.stream.stc = 24;          // paper: 100
    cfg.stream.segment_size = 24; // 32×32 images: keep segment cost bounded
    cfg.pretrain_per_class = 8;
  } else {
    cfg.stream.video_mode = true;
    cfg.stream.stc = 32;
    cfg.pretrain_per_class = 10;
  }
  return cfg;
}

inline std::vector<float> finals(const std::vector<eval::RunResult>& rs) {
  std::vector<float> out;
  out.reserve(rs.size());
  for (const auto& r : rs) out.push_back(r.final_accuracy);
  return out;
}

inline void print_scale_banner(const std::string& bench) {
  const BenchScale s = scale();
  std::cout << "# " << bench << "\n"
            << "scale=" << (eval::full_scale() ? "full" : "quick")
            << " seeds=" << s.seeds << " segments=" << s.segments
            << " (set DECO_BENCH_SCALE=full for the larger protocol)\n\n";
}

}  // namespace deco::bench
