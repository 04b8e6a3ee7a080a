// core::Workspace (scoped scratch arena) and detail::FloatStore (pooled
// tensor storage): buffer reuse across scopes, LIFO nesting, high-water
// accounting, thread safety under parallel_for, and the hot-path allocation
// counters the perf-smoke gate relies on.
#include "deco/core/workspace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "deco/core/thread_pool.h"
#include "deco/tensor/buffer_pool.h"
#include "deco/tensor/tensor.h"

namespace deco {
namespace {

TEST(WorkspaceTest, ScopeExitReleasesAndReusesMemory) {
  core::Workspace ws;  // private arena: stats start at zero
  float* first = nullptr;
  {
    core::Workspace::Scope scope(ws);
    first = scope.alloc_floats(1000);
    ASSERT_NE(first, nullptr);
    first[0] = 1.0f;
    first[999] = 2.0f;
  }
  const int64_t reserved = ws.bytes_reserved();
  EXPECT_GT(reserved, 0);
  EXPECT_EQ(ws.bytes_in_use(), 0);
  {
    core::Workspace::Scope scope(ws);
    float* second = scope.alloc_floats(1000);
    EXPECT_EQ(second, first) << "same-size scope must reuse the same block";
  }
  EXPECT_EQ(ws.bytes_reserved(), reserved) << "no growth on reuse";
}

TEST(WorkspaceTest, AllocationsAreCacheLineAligned) {
  core::Workspace ws;
  core::Workspace::Scope scope(ws);
  for (int64_t n : {1, 7, 64, 1000}) {
    float* p = scope.alloc_floats(n);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u) << "n=" << n;
  }
}

TEST(WorkspaceTest, NestedScopesReleaseInLifoOrder) {
  core::Workspace ws;
  core::Workspace::Scope outer(ws);
  float* a = outer.alloc_floats(64);
  const int64_t outer_in_use = ws.bytes_in_use();
  float* b1 = nullptr;
  {
    core::Workspace::Scope inner(ws);
    b1 = inner.alloc_floats(128);
    EXPECT_GT(ws.bytes_in_use(), outer_in_use);
  }
  EXPECT_EQ(ws.bytes_in_use(), outer_in_use) << "inner scope fully released";
  {
    core::Workspace::Scope inner(ws);
    float* b2 = inner.alloc_floats(128);
    EXPECT_EQ(b2, b1) << "inner scope reuses the released region";
  }
  // The outer allocation survived the inner scopes.
  a[0] = 3.0f;
  EXPECT_EQ(a[0], 3.0f);
}

TEST(WorkspaceTest, HighWaterTracksPeakNotCurrent) {
  core::Workspace ws;
  {
    core::Workspace::Scope scope(ws);
    scope.alloc_floats(256);  // 1 KiB, already 64-byte aligned
    scope.alloc_floats(256);
  }
  EXPECT_EQ(ws.bytes_in_use(), 0);
  EXPECT_EQ(ws.high_water_bytes(), 2 * 256 * static_cast<int64_t>(sizeof(float)));
  {
    core::Workspace::Scope scope(ws);
    scope.alloc_floats(64);
  }
  EXPECT_EQ(ws.high_water_bytes(), 2 * 256 * static_cast<int64_t>(sizeof(float)))
      << "a smaller later peak must not lower the high-water mark";
  core::Workspace::Scope outer(ws);
  outer.alloc_floats(16);
  ws.reset_high_water();
  EXPECT_EQ(ws.high_water_bytes(), 16 * static_cast<int64_t>(sizeof(float)))
      << "a reset restarts from the bytes in use";
  {
    core::Workspace::Scope scope(ws);
    scope.alloc_floats(64);
  }
  EXPECT_EQ(ws.high_water_bytes(), 80 * static_cast<int64_t>(sizeof(float)));
}

#if DECO_WORKSPACE_ASAN
// Under AddressSanitizer the arena poisons everything it has not handed
// out: a write one float past an allocation (into its alignment padding)
// and a write into a released scope are both reported.
TEST(WorkspaceDeathTest, AsanReportsWriteOnePastAnAllocation) {
  EXPECT_DEATH(
      {
        core::Workspace ws;
        core::Workspace::Scope scope(ws);
        volatile float* p = scope.alloc_floats(5);
        p[5] = 1.0f;
      },
      "use-after-poison");
}

TEST(WorkspaceDeathTest, AsanReportsWriteIntoReleasedScope) {
  EXPECT_DEATH(
      {
        core::Workspace ws;
        volatile float* p = nullptr;
        {
          core::Workspace::Scope scope(ws);
          p = scope.alloc_floats(64);
        }
        p[0] = 1.0f;
      },
      "use-after-poison");
}
#endif

TEST(WorkspaceTest, BlocksGrowWithoutInvalidatingEarlierPointers) {
  core::Workspace ws;
  core::Workspace::Scope scope(ws);
  // First allocation fills most of the initial block; the second forces a
  // new block. The first pointer must stay valid and hold its data.
  float* a = scope.alloc_floats(60000);
  a[0] = 42.0f;
  float* b = scope.alloc_floats(1 << 20);
  b[0] = 7.0f;
  EXPECT_EQ(a[0], 42.0f);
  EXPECT_GE(ws.bytes_reserved(),
            (60000 + (1 << 20)) * static_cast<int64_t>(sizeof(float)));
}

TEST(WorkspaceTest, ThreadSafeUnderParallelFor) {
  const int saved = core::num_threads();
  core::set_num_threads(4);
  std::vector<int64_t> sums(64, -1);
  core::parallel_for(0, 64, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      // Each chunk scribbles a distinct pattern through its thread's arena;
      // a shared or clobbered buffer would corrupt the readback.
      core::Workspace::Scope scope;  // Workspace::tls() of the running thread
      const int64_t n = 512 + i;
      float* p = scope.alloc_floats(n);
      for (int64_t j = 0; j < n; ++j) p[j] = static_cast<float>(i);
      int64_t sum = 0;
      for (int64_t j = 0; j < n; ++j) sum += static_cast<int64_t>(p[j]);
      sums[static_cast<size_t>(i)] = sum;
    }
  });
  for (int64_t i = 0; i < 64; ++i)
    EXPECT_EQ(sums[static_cast<size_t>(i)], (512 + i) * i) << "chunk " << i;
  const core::WorkspaceStats agg = core::Workspace::aggregate();
  EXPECT_GE(agg.arenas, 1);
  EXPECT_GT(agg.bytes_reserved, 0);
  core::set_num_threads(saved);
}

TEST(BufferPoolTest, TensorStorageIsRecycled) {
  // Drain pending buffers so this test observes its own traffic only.
  detail::trim_tensor_pool();
  const auto before = core::memstats();
  { Tensor t({64, 64}); }  // miss: first buffer of this bucket since trim
  const auto after_first = core::memstats();
  EXPECT_EQ(after_first.tensor_heap_allocs, before.tensor_heap_allocs + 1);
  { Tensor t({64, 64}); }  // hit: same bucket, served from the pool
  const auto after_second = core::memstats();
  EXPECT_EQ(after_second.tensor_heap_allocs, after_first.tensor_heap_allocs);
  EXPECT_EQ(after_second.tensor_pool_hits, after_first.tensor_pool_hits + 1);
}

TEST(BufferPoolTest, RecycledTensorsAreZeroInitialized) {
  detail::trim_tensor_pool();
  {
    Tensor t({32, 32});
    t.fill(5.0f);
  }
  Tensor t({32, 32});  // recycled buffer must still read as zeros
  for (int64_t i = 0; i < t.numel(); ++i) ASSERT_EQ(t[i], 0.0f) << "i=" << i;
}

TEST(BufferPoolTest, CopyAssignReusesCapacity) {
  Tensor dst({100, 100});
  Tensor src({100, 100});
  src.fill(2.0f);
  const auto before = core::memstats();
  dst = src;  // same bucket: must not touch the heap or the pool
  const auto after = core::memstats();
  EXPECT_EQ(after.tensor_heap_allocs, before.tensor_heap_allocs);
  EXPECT_EQ(after.tensor_pool_hits, before.tensor_pool_hits);
  EXPECT_EQ(dst[0], 2.0f);
  EXPECT_EQ(dst[100 * 100 - 1], 2.0f);
}

TEST(BufferPoolTest, TrimReleasesCachedBytes) {
  { Tensor t({128, 128}); }
  EXPECT_GT(detail::tensor_pool_cached_bytes(), 0);
  detail::trim_tensor_pool();
  EXPECT_EQ(detail::tensor_pool_cached_bytes(), 0);
}

}  // namespace
}  // namespace deco
