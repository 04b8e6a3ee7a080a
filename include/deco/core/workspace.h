// Zero-allocation scratch memory for the numeric hot path.
//
// Two cooperating pieces live here:
//
//   * `Workspace` — a per-thread bump arena for raw float scratch (GEMM
//     packing panels, layer temporaries). Allocation is a pointer bump,
//     deallocation is scope exit; the backing blocks are kept for the life
//     of the thread, so steady-state kernels never touch the heap. Blocks
//     only grow (they are never reallocated), which keeps outstanding
//     pointers stable across later allocations in the same scope.
//
//   * `MemStats` — process-wide counters of hot-path heap traffic: every
//     workspace block acquisition and every tensor-storage pool miss (see
//     tensor/buffer_pool.h) bumps a counter. After warm-up a healthy
//     training loop holds `hot_allocs()` flat; bench/perf_smoke.cpp asserts
//     exactly that over a learner run, and the counters are cheap enough
//     (relaxed atomics) to stay on in production.
//
// The stats deliberately cover only the dominant allocation class — tensor
// data buffers and workspace blocks. Small metadata (shape vectors,
// std::function captures, index vectors) is out of scope: it is bounded,
// orders of magnitude smaller, and immaterial to allocator pressure.
#pragma once

// DECO_WORKSPACE_ASAN is 1 when AddressSanitizer instruments this build.
// The arena then poisons every float it has not handed out, so a kernel
// that writes past its scratch allocation is reported like a heap overrun.
// Other builds compile none of it.
#if defined(__SANITIZE_ADDRESS__)
#define DECO_WORKSPACE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DECO_WORKSPACE_ASAN 1
#endif
#endif
#ifndef DECO_WORKSPACE_ASAN
#define DECO_WORKSPACE_ASAN 0
#endif

#include <atomic>
#include <cstdint>
#include <vector>

namespace deco::core {

// ---- hot-path allocation counters -------------------------------------------

struct MemStatsSnapshot {
  int64_t tensor_heap_allocs = 0;  ///< tensor-storage pool misses (operator new)
  int64_t tensor_heap_bytes = 0;   ///< bytes acquired by those misses
  int64_t tensor_pool_hits = 0;    ///< tensor storages served from the pool
  int64_t workspace_blocks = 0;    ///< workspace arena growth events
  int64_t workspace_bytes = 0;     ///< bytes reserved by workspace arenas

  /// The number every steady-state hot loop should hold constant.
  int64_t hot_allocs() const { return tensor_heap_allocs + workspace_blocks; }
};

/// Delta between two snapshots (end - start), for gate checks of the form
/// "this loop performed zero hot allocations".
MemStatsSnapshot operator-(const MemStatsSnapshot& a, const MemStatsSnapshot& b);

/// Snapshot of the process-wide counters (monotonic since process start).
MemStatsSnapshot memstats();

/// Counters attributable to the CALLING THREAD only (monotonic since the
/// thread started). Gate checks should difference two of these instead of
/// two process-wide snapshots: a process-global delta can be poisoned by
/// unrelated allocations on other threads (telemetry exporters, test
/// harnesses, a second benchmark), a per-thread delta cannot.
MemStatsSnapshot memstats_this_thread();

// Counter hooks for the allocating subsystems (relaxed atomics; any thread).
void memstats_note_tensor_alloc(int64_t bytes);
void memstats_note_tensor_pool_hit();
void memstats_note_workspace_block(int64_t bytes);

// ---- workspace arena --------------------------------------------------------

/// Aggregate view over every live thread's arena.
struct WorkspaceStats {
  int64_t arenas = 0;            ///< live per-thread arenas
  int64_t bytes_reserved = 0;    ///< sum of block capacities
  int64_t high_water_bytes = 0;  ///< max bytes simultaneously in use (sum)
};

/// Per-thread scratch arena. Use through `Workspace::Scope`; direct
/// construction is for tests only. All sizes are in floats unless the name
/// says bytes; returned pointers are 64-byte aligned (SIMD/cacheline).
class Workspace {
 public:
  Workspace();
  ~Workspace();
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// The calling thread's arena (created on first use).
  static Workspace& tls();

  /// RAII allocation scope: everything allocated inside the scope is
  /// released when it exits, in LIFO order. Scopes nest freely — a kernel
  /// that opens a scope may call another kernel that opens its own.
  class Scope {
   public:
    Scope() : Scope(Workspace::tls()) {}
    explicit Scope(Workspace& ws) : ws_(ws), marker_(ws.mark()) {}
    ~Scope() { ws_.release(marker_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// `n` floats of 64-byte-aligned scratch, valid until the scope exits.
    float* alloc_floats(int64_t n) { return ws_.alloc(n); }

   private:
    struct Marker {
      size_t block = 0;
      int64_t offset = 0;
      int64_t in_use = 0;
    };
    friend class Workspace;
    Workspace& ws_;
    Marker marker_;
  };

  // ---- per-arena stats (this thread's arena) --------------------------------
  int64_t bytes_reserved() const { return bytes_reserved_.load(std::memory_order_relaxed); }
  int64_t bytes_in_use() const { return in_use_ * static_cast<int64_t>(sizeof(float)); }
  int64_t high_water_bytes() const { return high_water_.load(std::memory_order_relaxed); }
  /// Restarts this arena's high-water mark from the bytes in use now, so a
  /// caller can measure the peak of one phase (e.g. a steady-state step).
  void reset_high_water() {
    high_water_.store(bytes_in_use(), std::memory_order_relaxed);
  }

  /// Aggregated over every live thread arena.
  static WorkspaceStats aggregate();

 private:
  struct Block {
    float* data = nullptr;
    int64_t cap = 0;   // floats
    int64_t used = 0;  // floats
  };

  Scope::Marker mark() const;
  void release(const Scope::Marker& m);
  float* alloc(int64_t n);

  std::vector<Block> blocks_;
  size_t cur_ = 0;       // block currently bumping
  int64_t in_use_ = 0;   // floats outstanding across all blocks
  // Atomics so aggregate() may read them from another thread.
  std::atomic<int64_t> bytes_reserved_{0};
  std::atomic<int64_t> high_water_{0};
};

}  // namespace deco::core
