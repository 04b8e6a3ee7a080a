// Pooled storage for Tensor data buffers.
//
// Tensors churn constantly in the training loop — layer outputs, gathered
// batches, gradient clones — and with plain std::vector storage every one of
// those is a malloc + free. `FloatStore` keeps Tensor's value semantics but
// recycles the backing buffers through a process-wide, size-bucketed pool:
// after the first few iterations warm the pool, steady-state training serves
// every tensor from recycled memory and `core::memstats().tensor_heap_allocs`
// stays flat (bench/perf_smoke.cpp asserts this over a learner run).
//
// The pool is global and mutex-protected rather than thread-local on
// purpose: condensation allocates tensors on pool workers and frees them on
// the caller, and per-thread caches would leak a steady stream of
// cross-thread misses. Acquire/release are a bucket push/pop under the lock;
// the zero-fill / copy happens outside it.
#pragma once

#include <cstdint>

namespace deco::detail {

/// Heap buffer of floats with value semantics, recycled through the pool.
/// Capacity is the bucket size (power of two), `size()` the logical length.
class FloatStore {
 public:
  FloatStore() = default;
  /// Zero-filled store of `n` floats.
  explicit FloatStore(int64_t n);
  FloatStore(const FloatStore& other);
  FloatStore& operator=(const FloatStore& other);
  FloatStore(FloatStore&& other) noexcept;
  FloatStore& operator=(FloatStore&& other) noexcept;
  ~FloatStore();

  float* data() { return ptr_; }
  const float* data() const { return ptr_; }
  int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  // Sets ptr_/cap_ for >= n floats, size_ = n; zero-fills when `zero`.
  void acquire(int64_t n, bool zero);
  void release();  // returns ptr_ to the pool

  float* ptr_ = nullptr;
  int64_t size_ = 0;
  int64_t cap_ = 0;
};

/// Frees every buffer cached in the pool (tests / memory-pressure hook).
void trim_tensor_pool();

/// Bytes currently cached in the pool (idle buffers, not live tensors).
int64_t tensor_pool_cached_bytes();

/// The pool's byte cap (DECO_TENSOR_POOL_MB, default 512 MiB). The
/// multi-session runtime treats this as the device memory budget and
/// partitions it across sessions at admission time.
int64_t tensor_pool_cap_bytes();

}  // namespace deco::detail
