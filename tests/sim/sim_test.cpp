// Unit tests for the simulation substrate: event queue, memory, MMU,
// caches, bus and host CPU cost model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/bus.hpp"
#include "sim/cache.hpp"
#include "sim/event_queue.hpp"
#include "sim/host_cpu.hpp"
#include "sim/mmu.hpp"
#include "sim/sim_memory.hpp"
#include "sim/system.hpp"
#include "support/rng.hpp"

namespace tdo::sim {
namespace {

TEST(EventQueueTest, ExecutesInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(30, "c", [&] { order.push_back(3); });
  queue.schedule_at(10, "a", [&] { order.push_back(1); });
  queue.schedule_at(20, "b", [&] { order.push_back(2); });
  EXPECT_EQ(queue.run_to_completion(), 30u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTickIsFifo) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(5, "a", [&] { order.push_back(1); });
  queue.schedule_at(5, "b", [&] { order.push_back(2); });
  queue.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue queue;
  int fired = 0;
  queue.schedule_at(1, "outer", [&] {
    ++fired;
    queue.schedule_after(support::Duration::from_ps(4), "inner",
                         [&] { ++fired; });
  });
  EXPECT_EQ(queue.run_to_completion(), 5u);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, RunUntilStopsAtLimit) {
  EventQueue queue;
  int fired = 0;
  queue.schedule_at(10, "a", [&] { ++fired; });
  queue.schedule_at(20, "b", [&] { ++fired; });
  EXPECT_EQ(queue.run_until(15), 15u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(queue.pending(), 1u);
}

TEST(SimMemoryTest, ReadsZeroBeforeFirstWrite) {
  SimMemory memory{1 << 20};
  EXPECT_EQ(memory.read_scalar<std::uint32_t>(0x1234), 0u);
  EXPECT_EQ(memory.resident_pages(), 0u);
}

TEST(SimMemoryTest, RoundTripsAcrossPageBoundary) {
  SimMemory memory{1 << 20};
  const std::vector<std::uint8_t> data = {1, 2, 3, 4, 5, 6, 7, 8};
  memory.write(kPageSize - 4, data);
  std::vector<std::uint8_t> out(8);
  memory.read(kPageSize - 4, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(memory.resident_pages(), 2u);
}

TEST(SimMemoryTest, ScalarTypedAccess) {
  SimMemory memory{1 << 20};
  memory.write_scalar<float>(64, 3.25f);
  EXPECT_EQ(memory.read_scalar<float>(64), 3.25f);
  memory.write_scalar<std::uint64_t>(128, 0xdeadbeefcafeull);
  EXPECT_EQ(memory.read_scalar<std::uint64_t>(128), 0xdeadbeefcafeull);
}

TEST(SimMemoryTest, PageMemoNeverCachesAnAbsentPage) {
  SimMemory memory{1 << 20};
  PageMemo memo;
  EXPECT_EQ(memory.read_scalar<float>(0x2000, memo), 0.0f);
  EXPECT_EQ(memory.resident_pages(), 0u);  // a memoized read allocates nothing
  // Another access path materializes the page; the memo sees the write.
  memory.write_scalar<float>(0x2004, 1.5f);
  EXPECT_EQ(memory.read_scalar<float>(0x2004, memo), 1.5f);
  // Writes through the memo land in the same page storage.
  memory.write_scalar<float>(0x2008, 2.5f, memo);
  EXPECT_EQ(memory.read_scalar<float>(0x2008), 2.5f);
  // A write through a memo on an absent page materializes it.
  PageMemo other;
  memory.write_scalar<float>(0x5000, 4.0f, other);
  EXPECT_EQ(memory.read_scalar<float>(0x5000, memo), 4.0f);
  EXPECT_EQ(memory.resident_pages(), 2u);
  // An access straddling two pages takes the plain path.
  memory.write_scalar<std::uint64_t>(kPageSize - 4, 0x1122334455667788ull, memo);
  EXPECT_EQ(memory.read_scalar<std::uint64_t>(kPageSize - 4, other),
            0x1122334455667788ull);
}

TEST(MmuTest, AllocateTranslateRelease) {
  Mmu mmu{1 << 22, 1 << 20};
  auto va = mmu.allocate(3 * kPageSize);
  ASSERT_TRUE(va.is_ok());
  auto pa = mmu.translate(*va + 5);
  ASSERT_TRUE(pa.is_ok());
  EXPECT_EQ(page_offset(*pa), 5u);
  EXPECT_TRUE(mmu.release(*va, 3 * kPageSize).is_ok());
  EXPECT_FALSE(mmu.translate(*va).is_ok());
}

TEST(MmuTest, CmaRegionIsReservedAtTop) {
  Mmu mmu{1 << 22, 1 << 20};
  EXPECT_EQ(mmu.cma_region().base, (1u << 22) - (1u << 20));
  EXPECT_EQ(mmu.cma_region().size, 1u << 20);
}

TEST(MmuTest, MapPhysicalIsContiguous) {
  Mmu mmu{1 << 22, 1 << 20};
  const PhysAddr pa = mmu.cma_region().base;
  auto va = mmu.map_physical(pa, 4 * kPageSize);
  ASSERT_TRUE(va.is_ok());
  EXPECT_TRUE(mmu.is_contiguous(*va, 4 * kPageSize));
  // Ordinary allocations hand out frames in descending pop order; two
  // separate single-page allocations are not guaranteed contiguous with a
  // multi-page one interleaved.
  auto v1 = mmu.allocate(kPageSize);
  ASSERT_TRUE(v1.is_ok());
  EXPECT_TRUE(mmu.is_contiguous(*v1, kPageSize));  // single page: trivially
}

TEST(MmuTest, TranslateFailsOnUnmapped) {
  Mmu mmu{1 << 22, 1 << 20};
  EXPECT_FALSE(mmu.translate(0xdead0000).is_ok());
}

TEST(MmuTest, AllocationFailsWhenExhausted) {
  Mmu mmu{16 * kPageSize, 4 * kPageSize};  // 12 usable frames
  EXPECT_FALSE(mmu.allocate(13 * kPageSize).is_ok());
  EXPECT_TRUE(mmu.allocate(12 * kPageSize).is_ok());
}

TEST(CacheTest, HitsAfterFirstMiss) {
  Cache cache{CacheParams{.name = "t", .size_bytes = 4096, .line_bytes = 64, .ways = 2}};
  bool dirty = false;
  EXPECT_EQ(cache.access(0x100, false, &dirty), CacheOutcome::kMiss);
  EXPECT_EQ(cache.access(0x100, false, &dirty), CacheOutcome::kHit);
  EXPECT_EQ(cache.access(0x13F, false, &dirty), CacheOutcome::kHit);  // same line
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(CacheTest, LruEvictsOldestWay) {
  // 2 ways, 64B lines, 2 sets -> addresses 0, 256, 512 map to set 0.
  Cache cache{CacheParams{.name = "t", .size_bytes = 256, .line_bytes = 64, .ways = 2}};
  bool dirty = false;
  (void)cache.access(0, false, &dirty);
  (void)cache.access(256, false, &dirty);
  (void)cache.access(0, false, &dirty);    // refresh line 0
  (void)cache.access(512, false, &dirty);  // evicts 256
  EXPECT_EQ(cache.access(0, false, &dirty), CacheOutcome::kHit);
  EXPECT_EQ(cache.access(256, false, &dirty), CacheOutcome::kMiss);
}

TEST(CacheTest, DirtyEvictionReportsWriteback) {
  Cache cache{CacheParams{.name = "t", .size_bytes = 128, .line_bytes = 64, .ways = 1}};
  bool dirty = false;
  (void)cache.access(0, true, &dirty);  // dirty line in set 0
  EXPECT_FALSE(dirty);
  (void)cache.access(128, false, &dirty);  // same set, evicts dirty
  EXPECT_TRUE(dirty);
  EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(CacheTest, FlushAllCountsDirtyLines) {
  Cache cache{CacheParams{.name = "t", .size_bytes = 4096, .line_bytes = 64, .ways = 4}};
  bool dirty = false;
  (void)cache.access(0, true, &dirty);
  (void)cache.access(64, true, &dirty);
  (void)cache.access(128, false, &dirty);
  EXPECT_EQ(cache.flush_all(), 2u);
  // Everything is invalid now.
  EXPECT_EQ(cache.access(0, false, &dirty), CacheOutcome::kMiss);
}

TEST(CacheTest, FlushRangeOnlyTouchesRange) {
  Cache cache{CacheParams{.name = "t", .size_bytes = 4096, .line_bytes = 64, .ways = 4}};
  bool dirty = false;
  (void)cache.access(0, true, &dirty);
  (void)cache.access(1024, true, &dirty);
  EXPECT_EQ(cache.flush_range(0, 64), 1u);
  EXPECT_EQ(cache.access(1024, false, &dirty), CacheOutcome::kHit);
}

// Reference model for Cache: explicit valid/dirty flags per line and a full
// scan on flush, against which the epoch-based O(1) flush is checked.
class ReferenceCache {
 public:
  ReferenceCache(std::uint64_t sets, std::uint32_t ways, std::uint32_t line)
      : sets_{sets}, ways_{ways}, line_{line}, lines_(sets * ways) {}

  CacheOutcome access(PhysAddr addr, bool is_write, bool* evicted_dirty) {
    *evicted_dirty = false;
    const std::uint64_t lineno = addr / line_;
    Line* set = &lines_[(lineno % sets_) * ways_];
    Line* victim = set;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      Line& l = set[w];
      if (l.valid && l.tag == lineno / sets_) {
        l.stamp = ++stamp_;
        l.dirty = l.dirty || is_write;
        return CacheOutcome::kHit;
      }
      if (!l.valid) {
        victim = &l;
      } else if (victim->valid && l.stamp < victim->stamp) {
        victim = &l;
      }
    }
    *evicted_dirty = victim->valid && victim->dirty;
    *victim = Line{lineno / sets_, true, is_write, ++stamp_};
    return CacheOutcome::kMiss;
  }

  std::uint64_t flush_all() {
    std::uint64_t dirty = 0;
    for (Line& l : lines_) {
      dirty += l.valid && l.dirty ? 1 : 0;
      l.valid = l.dirty = false;
    }
    return dirty;
  }

  std::uint64_t flush_range(PhysAddr addr, std::uint64_t bytes) {
    std::uint64_t dirty = 0;
    for (std::uint64_t n = addr / line_; n < (addr + bytes + line_ - 1) / line_;
         ++n) {
      Line* set = &lines_[(n % sets_) * ways_];
      for (std::uint32_t w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].tag == n / sets_) {
          dirty += set[w].dirty ? 1 : 0;
          set[w].valid = set[w].dirty = false;
        }
      }
    }
    return dirty;
  }

 private:
  struct Line {
    std::uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t stamp = 0;
  };
  std::uint64_t sets_;
  std::uint32_t ways_;
  std::uint32_t line_;
  std::vector<Line> lines_;
  std::uint64_t stamp_ = 0;
};

TEST(CacheTest, MatchesReferenceAcrossFlushes) {
  // Random reads, writes, range flushes and full flushes over a footprint a
  // few times the cache: every outcome, dirty eviction and flushed-dirty
  // count must match the scanning reference exactly.
  Cache cache{CacheParams{.name = "t", .size_bytes = 2048, .line_bytes = 64, .ways = 4}};
  ReferenceCache reference{8, 4, 64};
  support::Rng rng{42};
  for (int op = 0; op < 20000; ++op) {
    const auto addr = static_cast<PhysAddr>(rng.uniform_int(0, 8191));
    const std::int64_t kind = rng.uniform_int(0, 99);
    if (kind < 2) {
      ASSERT_EQ(cache.flush_all(), reference.flush_all()) << "op " << op;
    } else if (kind < 5) {
      const auto bytes = static_cast<std::uint64_t>(rng.uniform_int(1, 512));
      ASSERT_EQ(cache.flush_range(addr, bytes),
                reference.flush_range(addr, bytes))
          << "op " << op;
    } else {
      const bool is_write = kind < 40;
      bool got_dirty = false;
      bool want_dirty = false;
      ASSERT_EQ(cache.access(addr, is_write, &got_dirty),
                reference.access(addr, is_write, &want_dirty))
          << "op " << op;
      ASSERT_EQ(got_dirty, want_dirty) << "op " << op;
    }
  }
  EXPECT_EQ(cache.flush_all(), reference.flush_all());
  EXPECT_EQ(cache.flush_all(), 0u);  // nothing is dirty right after a flush
}

TEST(HostCpuTest, ChargesInstructionEnergy) {
  SystemParams params;
  System system{params};
  system.cpu().charge_instructions(1000);
  EXPECT_EQ(system.cpu().instructions(), 1000u);
  EXPECT_NEAR(system.cpu().energy().nanojoules(), 128.0, 1e-9);
}

TEST(HostCpuTest, MemoryStallsRaiseCycles) {
  System system;
  const std::uint64_t before = system.cpu().cycles();
  system.cpu().load(0x10000);  // cold miss -> L2 + DRAM stall
  const std::uint64_t cold = system.cpu().cycles() - before;
  const std::uint64_t before2 = system.cpu().cycles();
  system.cpu().load(0x10000);  // now hot
  const std::uint64_t hot = system.cpu().cycles() - before2;
  EXPECT_GT(cold, hot + 50);
}

TEST(HostCpuTest, SpinUntilReachesTargetExactly) {
  System system;
  system.cpu().charge_instructions(100);
  const Tick target = system.cpu().elapsed().ticks() + 1'000'000;  // +1us
  (void)system.cpu().spin_until(target);
  EXPECT_GE(system.cpu().elapsed().ticks(), target);
  EXPECT_LT(system.cpu().elapsed().ticks(), target + 2000);
}

TEST(BusTest, RoutesDramAndRejectsUnmapped) {
  System system;
  ASSERT_TRUE(system.bus().write_scalar<std::uint32_t>(0x40, 77).is_ok());
  auto value = system.bus().read_scalar<std::uint32_t>(0x40);
  ASSERT_TRUE(value.is_ok());
  EXPECT_EQ(*value, 77u);
  EXPECT_FALSE(system.bus().read_scalar<std::uint32_t>(0x50'0000'0000ull).is_ok());
}

TEST(SystemTest, GlobalTimeTracksBothClocks) {
  System system;
  system.cpu().charge_cycles(1200);  // 1 us at 1.2 GHz
  EXPECT_NEAR(system.global_time().microseconds(), 1.0, 0.01);
  system.sync_event_clock_to_host();
  system.events().schedule_after(support::Duration::from_us(5), "x", [] {});
  system.events().run_to_completion();
  EXPECT_NEAR(system.global_time().microseconds(), 6.0, 0.02);
}

}  // namespace
}  // namespace tdo::sim
