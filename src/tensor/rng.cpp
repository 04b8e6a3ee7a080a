#include "deco/tensor/rng.h"

#include <cmath>
#include <numbers>

#include "deco/tensor/check.h"
#include "deco/tensor/serialize.h"
#include "deco/tensor/tensor.h"

namespace deco {

namespace {
uint64_t splitmix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // xoshiro must not start in the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::next_u64() {
  const uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits → double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

int64_t Rng::uniform_int(int64_t n) {
  DECO_CHECK(n > 0, "uniform_int: n must be positive");
  // Rejection-free for our purposes: modulo bias is negligible for n << 2^64.
  return static_cast<int64_t>(next_u64() % static_cast<uint64_t>(n));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  double u2 = uniform();
  // Avoid log(0).
  if (u1 < 1e-300) u1 = 1e-300;
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

bool Rng::bernoulli(double p) { return uniform() < p; }

void Rng::fill_normal(Tensor& t, double mean, double stddev) {
  float* p = t.data();
  for (int64_t i = 0, n = t.numel(); i < n; ++i)
    p[i] = static_cast<float>(normal(mean, stddev));
}

void Rng::fill_uniform(Tensor& t, double lo, double hi) {
  float* p = t.data();
  for (int64_t i = 0, n = t.numel(); i < n; ++i)
    p[i] = static_cast<float>(uniform(lo, hi));
}

void Rng::shuffle(std::vector<int64_t>& v) {
  for (int64_t i = static_cast<int64_t>(v.size()) - 1; i > 0; --i) {
    const int64_t j = uniform_int(i + 1);
    std::swap(v[static_cast<size_t>(i)], v[static_cast<size_t>(j)]);
  }
}

std::vector<int64_t> Rng::sample_without_replacement(int64_t n, int64_t k) {
  DECO_CHECK(k >= 0 && k <= n, "sample_without_replacement: need 0 <= k <= n");
  std::vector<int64_t> idx(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) idx[static_cast<size_t>(i)] = i;
  // Partial Fisher–Yates: only the first k positions need to be finalized.
  for (int64_t i = 0; i < k; ++i) {
    const int64_t j = i + uniform_int(n - i);
    std::swap(idx[static_cast<size_t>(i)], idx[static_cast<size_t>(j)]);
  }
  idx.resize(static_cast<size_t>(k));
  return idx;
}

Rng Rng::split() { return Rng(next_u64()); }

RngState Rng::state() const {
  RngState st;
  for (int i = 0; i < 4; ++i) st.s[i] = s_[i];
  st.has_cached_normal = has_cached_normal_;
  st.cached_normal = cached_normal_;
  return st;
}

void Rng::set_state(const RngState& st) {
  for (int i = 0; i < 4; ++i) s_[i] = st.s[i];
  has_cached_normal_ = st.has_cached_normal;
  cached_normal_ = st.cached_normal;
}

void write_rng_state(std::ostream& os, const RngState& st) {
  for (uint64_t w : st.s) write_pod(os, w);
  write_pod(os, static_cast<uint8_t>(st.has_cached_normal ? 1 : 0));
  write_pod(os, st.cached_normal);
}

RngState read_rng_state(std::istream& is) {
  RngState st;
  for (auto& w : st.s) w = read_pod<uint64_t>(is);
  st.has_cached_normal = read_pod<uint8_t>(is) != 0;
  st.cached_normal = read_pod<double>(is);
  return st;
}

}  // namespace deco
