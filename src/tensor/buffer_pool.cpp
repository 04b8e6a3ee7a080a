#include "deco/tensor/buffer_pool.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <vector>

#include "deco/core/workspace.h"
#include "deco/tensor/check.h"

namespace deco::detail {

namespace {

constexpr int64_t kMinBucketFloats = 32;  // 128 B
constexpr int64_t kAlignBytes = 64;
constexpr int kNumBuckets = 40;  // pow2 buckets up to 2^(5+39) floats — plenty

int64_t default_pool_cap_bytes() {
  if (const char* env = std::getenv("DECO_TENSOR_POOL_MB")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v >= 0) return static_cast<int64_t>(v) * (1 << 20);
  }
  return int64_t{512} << 20;  // 512 MiB
}

// Bucket index for a capacity request: smallest power of two >= n (and
// >= kMinBucketFloats). Index 0 holds kMinBucketFloats.
int bucket_index(int64_t n) {
  int64_t cap = kMinBucketFloats;
  int idx = 0;
  while (cap < n) {
    cap <<= 1;
    ++idx;
  }
  return idx;
}

int64_t bucket_capacity(int idx) { return kMinBucketFloats << idx; }

struct Pool {
  std::mutex mutex;
  std::vector<float*> buckets[kNumBuckets];
  int64_t cached_bytes = 0;
  const int64_t cap_bytes = default_pool_cap_bytes();

  // Pops a recycled buffer for bucket `idx`, or nullptr on miss.
  float* pop(int idx) {
    std::lock_guard<std::mutex> lock(mutex);
    auto& list = buckets[idx];
    if (list.empty()) return nullptr;
    float* p = list.back();
    list.pop_back();
    cached_bytes -= bucket_capacity(idx) * static_cast<int64_t>(sizeof(float));
    return p;
  }

  // Returns a buffer to bucket `idx`; deletes it instead when the pool is
  // at its byte cap.
  void push(int idx, float* p) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      const int64_t bytes =
          bucket_capacity(idx) * static_cast<int64_t>(sizeof(float));
      if (cached_bytes + bytes <= cap_bytes) {
        buckets[idx].push_back(p);
        cached_bytes += bytes;
        return;
      }
    }
    ::operator delete(p, std::align_val_t(kAlignBytes));
  }

  void trim() {
    std::lock_guard<std::mutex> lock(mutex);
    for (auto& list : buckets) {
      for (float* p : list) ::operator delete(p, std::align_val_t(kAlignBytes));
      list.clear();
    }
    cached_bytes = 0;
  }
};

// Leaked on purpose: tensors with static storage duration may release their
// buffers during process teardown, after a non-leaked pool would already be
// gone. The pointer stays reachable, so LeakSanitizer is quiet.
Pool& pool() {
  static Pool* p = new Pool();
  return *p;
}

}  // namespace

FloatStore::FloatStore(int64_t n) { acquire(n, /*zero=*/true); }

FloatStore::FloatStore(const FloatStore& other) {
  if (other.size_ == 0) return;
  acquire(other.size_, /*zero=*/false);
  std::memcpy(ptr_, other.ptr_, static_cast<size_t>(size_) * sizeof(float));
}

FloatStore& FloatStore::operator=(const FloatStore& other) {
  if (this == &other) return *this;
  if (other.size_ == 0) {
    release();
    return *this;
  }
  // Reuse the current buffer when its bucket already fits (the common case
  // for per-step reassignment of a recurring shape).
  if (cap_ < other.size_) {
    release();
    acquire(other.size_, /*zero=*/false);
  } else {
    size_ = other.size_;
  }
  std::memcpy(ptr_, other.ptr_, static_cast<size_t>(size_) * sizeof(float));
  return *this;
}

FloatStore::FloatStore(FloatStore&& other) noexcept
    : ptr_(other.ptr_), size_(other.size_), cap_(other.cap_) {
  other.ptr_ = nullptr;
  other.size_ = 0;
  other.cap_ = 0;
}

FloatStore& FloatStore::operator=(FloatStore&& other) noexcept {
  if (this == &other) return *this;
  release();
  ptr_ = other.ptr_;
  size_ = other.size_;
  cap_ = other.cap_;
  other.ptr_ = nullptr;
  other.size_ = 0;
  other.cap_ = 0;
  return *this;
}

FloatStore::~FloatStore() { release(); }

void FloatStore::acquire(int64_t n, bool zero) {
  DECO_CHECK(n >= 0, "FloatStore: negative size");
  if (n == 0) return;
  const int idx = bucket_index(n);
  cap_ = bucket_capacity(idx);
  size_ = n;
  ptr_ = pool().pop(idx);
  if (ptr_ != nullptr) {
    core::memstats_note_tensor_pool_hit();
  } else {
    const int64_t bytes = cap_ * static_cast<int64_t>(sizeof(float));
    ptr_ = static_cast<float*>(
        ::operator new(static_cast<size_t>(bytes), std::align_val_t(kAlignBytes)));
    core::memstats_note_tensor_alloc(bytes);
  }
  if (zero) std::memset(ptr_, 0, static_cast<size_t>(n) * sizeof(float));
}

void FloatStore::release() {
  if (ptr_ != nullptr) pool().push(bucket_index(cap_), ptr_);
  ptr_ = nullptr;
  size_ = 0;
  cap_ = 0;
}

void trim_tensor_pool() { pool().trim(); }

int64_t tensor_pool_cached_bytes() {
  std::lock_guard<std::mutex> lock(pool().mutex);
  return pool().cached_bytes;
}

int64_t tensor_pool_cap_bytes() { return pool().cap_bytes; }

}  // namespace deco::detail
