// Deterministic pseudo-random number generation.
//
// All stochastic components of the library (weight init, stream generation,
// model randomization inside the condensation loop, augmentation sampling)
// draw from an explicitly seeded Rng instance so that every experiment is
// reproducible from a single seed. The generator is xoshiro256**, which is
// fast, has a 256-bit state and passes BigCrush; we avoid std::mt19937 to keep
// cross-platform bit-exactness trivial to reason about.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace deco {

class Tensor;

/// Complete serializable generator state (xoshiro words + the Box–Muller
/// cache). Lets crash-safe checkpoints resume random streams bit-exactly.
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};
  bool has_cached_normal = false;
  double cached_normal = 0.0;
};

/// The one on-disk encoding of an RngState (learner and condenser state
/// files): 4 × u64 words | u8 has_cached_normal | f64 cached_normal.
void write_rng_state(std::ostream& os, const RngState& st);
RngState read_rng_state(std::istream& is);

class Rng {
 public:
  /// Seeds the state via splitmix64 expansion of `seed`.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit value.
  uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  int64_t uniform_int(int64_t n);
  /// Standard normal via Box–Muller (cached second value).
  double normal();
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);
  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Fills `t` with i.i.d. N(mean, stddev) samples.
  void fill_normal(Tensor& t, double mean, double stddev);
  /// Fills `t` with i.i.d. U[lo, hi) samples.
  void fill_uniform(Tensor& t, double lo, double hi);

  /// In-place Fisher–Yates shuffle of an index vector.
  void shuffle(std::vector<int64_t>& v);

  /// Returns k distinct indices sampled uniformly from [0, n).
  std::vector<int64_t> sample_without_replacement(int64_t n, int64_t k);

  /// Derives an independent child generator (for per-component streams).
  Rng split();

  /// Captures / restores the full generator state (for crash-safe resume).
  RngState state() const;
  void set_state(const RngState& st);

 private:
  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace deco
