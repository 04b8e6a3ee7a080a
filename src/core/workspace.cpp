#include "deco/core/workspace.h"

#include <algorithm>
#include <mutex>
#include <new>

#include "deco/tensor/check.h"

#if DECO_WORKSPACE_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace deco::core {

namespace {

// Process-wide hot-path allocation counters.
std::atomic<int64_t> g_tensor_heap_allocs{0};
std::atomic<int64_t> g_tensor_heap_bytes{0};
std::atomic<int64_t> g_tensor_pool_hits{0};
std::atomic<int64_t> g_workspace_blocks{0};
std::atomic<int64_t> g_workspace_bytes{0};

// Registry of live arenas so aggregate() can sum their stats. Registration
// happens once per thread (tls construction/destruction), so the mutex is
// never on a hot path.
std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::vector<Workspace*>& registry() {
  static std::vector<Workspace*>* r = new std::vector<Workspace*>();
  return *r;
}

// Per-thread mirror of the allocation counters. The note_* hooks bump both
// the process-wide atomics and this thread-local copy, so callers can
// difference counters that only this thread could have moved (see
// memstats_this_thread in the header).
thread_local MemStatsSnapshot tl_memstats;

constexpr int64_t kMinBlockFloats = 1 << 16;  // 256 KiB
constexpr int64_t kAlignBytes = 64;
constexpr int64_t kAlignFloats = kAlignBytes / static_cast<int64_t>(sizeof(float));

int64_t round_up(int64_t n, int64_t mult) { return (n + mult - 1) / mult * mult; }

// Marks `n` floats at `p` unusable (poison) or usable (unpoison) for ASan.
// Only the floats an allocation asked for are unpoisoned, not its alignment
// padding, so a write one float past the end is caught too.
void poison(const float* p, int64_t n) {
#if DECO_WORKSPACE_ASAN
  ASAN_POISON_MEMORY_REGION(p, static_cast<size_t>(n) * sizeof(float));
#else
  (void)p, (void)n;
#endif
}

void unpoison(const float* p, int64_t n) {
#if DECO_WORKSPACE_ASAN
  ASAN_UNPOISON_MEMORY_REGION(p, static_cast<size_t>(n) * sizeof(float));
#else
  (void)p, (void)n;
#endif
}

}  // namespace

MemStatsSnapshot operator-(const MemStatsSnapshot& a, const MemStatsSnapshot& b) {
  MemStatsSnapshot d;
  d.tensor_heap_allocs = a.tensor_heap_allocs - b.tensor_heap_allocs;
  d.tensor_heap_bytes = a.tensor_heap_bytes - b.tensor_heap_bytes;
  d.tensor_pool_hits = a.tensor_pool_hits - b.tensor_pool_hits;
  d.workspace_blocks = a.workspace_blocks - b.workspace_blocks;
  d.workspace_bytes = a.workspace_bytes - b.workspace_bytes;
  return d;
}

MemStatsSnapshot memstats_this_thread() { return tl_memstats; }

MemStatsSnapshot memstats() {
  MemStatsSnapshot s;
  s.tensor_heap_allocs = g_tensor_heap_allocs.load(std::memory_order_relaxed);
  s.tensor_heap_bytes = g_tensor_heap_bytes.load(std::memory_order_relaxed);
  s.tensor_pool_hits = g_tensor_pool_hits.load(std::memory_order_relaxed);
  s.workspace_blocks = g_workspace_blocks.load(std::memory_order_relaxed);
  s.workspace_bytes = g_workspace_bytes.load(std::memory_order_relaxed);
  return s;
}

void memstats_note_tensor_alloc(int64_t bytes) {
  g_tensor_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_tensor_heap_bytes.fetch_add(bytes, std::memory_order_relaxed);
  ++tl_memstats.tensor_heap_allocs;
  tl_memstats.tensor_heap_bytes += bytes;
}

void memstats_note_tensor_pool_hit() {
  g_tensor_pool_hits.fetch_add(1, std::memory_order_relaxed);
  ++tl_memstats.tensor_pool_hits;
}

void memstats_note_workspace_block(int64_t bytes) {
  g_workspace_blocks.fetch_add(1, std::memory_order_relaxed);
  g_workspace_bytes.fetch_add(bytes, std::memory_order_relaxed);
  ++tl_memstats.workspace_blocks;
  tl_memstats.workspace_bytes += bytes;
}

Workspace::Workspace() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  registry().push_back(this);
}

Workspace::~Workspace() {
  {
    std::lock_guard<std::mutex> lock(registry_mutex());
    auto& r = registry();
    r.erase(std::remove(r.begin(), r.end(), this), r.end());
  }
  for (Block& b : blocks_) {
    unpoison(b.data, b.cap);
    ::operator delete(b.data, std::align_val_t(kAlignBytes));
  }
}

Workspace& Workspace::tls() {
  thread_local Workspace ws;
  return ws;
}

Workspace::Scope::Marker Workspace::mark() const {
  Scope::Marker m;
  m.block = cur_;
  m.offset = blocks_.empty() ? 0 : blocks_[cur_].used;
  m.in_use = in_use_;
  return m;
}

void Workspace::release(const Scope::Marker& m) {
  for (size_t b = m.block + 1; b < blocks_.size(); ++b) {
    poison(blocks_[b].data, blocks_[b].used);
    blocks_[b].used = 0;
  }
  if (!blocks_.empty()) {
    Block& b = blocks_[m.block];
    poison(b.data + m.offset, b.used - m.offset);
    b.used = m.offset;
  }
  cur_ = m.block;
  in_use_ = m.in_use;
}

float* Workspace::alloc(int64_t n) {
  DECO_CHECK(n >= 0, "Workspace::alloc: negative size");
  const int64_t want = std::max<int64_t>(round_up(n, kAlignFloats), kAlignFloats);

  if (blocks_.empty() || blocks_[cur_].cap - blocks_[cur_].used < want) {
    // Move to the next block if one with room already exists (a previous
    // scope grew the arena); otherwise grow. Blocks are never resized, so
    // pointers handed out earlier in this scope stay valid.
    size_t next = cur_ + (blocks_.empty() ? 0 : 1);
    while (next < blocks_.size() && blocks_[next].cap < want) ++next;
    if (next >= blocks_.size()) {
      const int64_t last_cap = blocks_.empty() ? 0 : blocks_.back().cap;
      const int64_t cap = std::max({want, kMinBlockFloats, 2 * last_cap});
      Block b;
      b.data = static_cast<float*>(::operator new(
          static_cast<size_t>(cap) * sizeof(float), std::align_val_t(kAlignBytes)));
      b.cap = cap;
      poison(b.data, cap);
      blocks_.push_back(b);
      next = blocks_.size() - 1;
      bytes_reserved_.fetch_add(cap * static_cast<int64_t>(sizeof(float)),
                                std::memory_order_relaxed);
      memstats_note_workspace_block(cap * static_cast<int64_t>(sizeof(float)));
    }
    cur_ = next;
  }

  Block& b = blocks_[cur_];
  float* p = b.data + b.used;
  unpoison(p, n);
  b.used += want;
  in_use_ += want;
  const int64_t in_use_bytes = in_use_ * static_cast<int64_t>(sizeof(float));
  if (in_use_bytes > high_water_.load(std::memory_order_relaxed))
    high_water_.store(in_use_bytes, std::memory_order_relaxed);
  return p;
}

WorkspaceStats Workspace::aggregate() {
  WorkspaceStats s;
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (const Workspace* ws : registry()) {
    ++s.arenas;
    s.bytes_reserved += ws->bytes_reserved_.load(std::memory_order_relaxed);
    s.high_water_bytes += ws->high_water_.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace deco::core
