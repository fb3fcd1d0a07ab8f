// Tests for the size-class arena allocator (src/alloc/arena/): rounding
// boundaries, magazine refill/flush behavior, the cross-thread home-return
// protocol over forced multi-shard topologies, and ASan-clean concurrent
// churn.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "alloc/arena/arena_alloc.h"
#include "alloc/arena/size_classes.h"
#include "topo/topology.h"
#include "util/debug_stats.h"

namespace smr::alloc {
namespace {

// ---- size classes --------------------------------------------------------

TEST(SizeClasses, RoundingBoundaries) {
    // The jemalloc ladder: 8, then multiples of 16 to 128, then four
    // classes per power-of-two group.
    EXPECT_EQ(round_size(0), 8u);
    EXPECT_EQ(round_size(1), 8u);
    EXPECT_EQ(round_size(8), 8u);
    EXPECT_EQ(round_size(9), 16u);
    EXPECT_EQ(round_size(16), 16u);
    EXPECT_EQ(round_size(17), 32u);
    EXPECT_EQ(round_size(127), 128u);
    EXPECT_EQ(round_size(128), 128u);
    EXPECT_EQ(round_size(129), 160u);
    EXPECT_EQ(round_size(160), 160u);
    EXPECT_EQ(round_size(161), 192u);
    EXPECT_EQ(round_size(256), 256u);
    EXPECT_EQ(round_size(257), 320u);
    EXPECT_EQ(round_size(512), 512u);
    EXPECT_EQ(round_size(513), 640u);
    EXPECT_EQ(round_size(SIZE_CLASS_MAX), SIZE_CLASS_MAX);
}

TEST(SizeClasses, TableIsAscendingAndIdempotent) {
    for (int i = 0; i < NUM_SIZE_CLASSES; ++i) {
        const std::size_t c = size_class_bytes(i);
        // A class rounds to itself (classes are fixed points)...
        EXPECT_EQ(round_size(c), c);
        // ...and the table maps back to the same index.
        EXPECT_EQ(size_class_index(c), i);
        if (i > 0) {
            EXPECT_GT(c, size_class_bytes(i - 1));
        }
    }
    // Fragmentation bound: a size rounds up by at most 25%.
    for (std::size_t n = 129; n <= SIZE_CLASS_MAX; n += 7) {
        EXPECT_LE(round_size(n) - n, n / 4) << "n=" << n;
    }
}

TEST(SizeClasses, IndexMatchesRounding) {
    for (std::size_t n = 1; n <= 2048; ++n) {
        EXPECT_EQ(size_class_bytes(size_class_index(n)), round_size(n))
            << "n=" << n;
    }
}

// ---- arena allocator -----------------------------------------------------

struct rec {
    long long a, b;  // 16 bytes -> slot class 16
};

using arena_t = allocator_arena<rec>;

/// Forces a deterministic 2-shard topology (tid % 2) for the duration of
/// each test; the arena snapshots the shard count at construction.
class ArenaTwoShards : public ::testing::Test {
  protected:
    void SetUp() override {
        topo::set_topology_for_testing(topo::topology::forced(2, 4));
    }
    void TearDown() override { topo::reset_topology_for_testing(); }
};

/// Forces one shard so the single-shard assertions below hold on any
/// host, including genuine multi-socket machines (where the detected
/// topology would otherwise route the gtest thread to a nonzero shard).
class ArenaAlloc : public ::testing::Test {
  protected:
    void SetUp() override {
        topo::set_topology_for_testing(topo::topology::single_node(2));
    }
    void TearDown() override { topo::reset_topology_for_testing(); }
};

TEST_F(ArenaAlloc, AllocateReturnsDistinctAlignedSlots) {
    debug_stats stats;
    arena_t arena(1, &stats);
    std::set<rec*> seen;
    for (int i = 0; i < 1000; ++i) {
        rec* p = arena.allocate(0);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % alignof(rec), 0u);
        EXPECT_TRUE(seen.insert(p).second) << "slot handed out twice";
        p->a = i;  // touch: ASan catches a bad carve
    }
    // Hand-out accounting matches the other allocators: nothing was ever
    // freed, so every allocate counted as fresh -- exactly once.
    EXPECT_EQ(stats.total(stat::records_allocated), 1000u);
    EXPECT_EQ(stats.total(stat::records_reused), 0u);
    EXPECT_GT(stats.total(stat::arena_slabs), 0u);
    for (rec* p : seen) arena.deallocate(0, p);
}

TEST_F(ArenaAlloc, MagazineRefillsInBatchesAndReusesFreedSlots) {
    debug_stats stats;
    arena_t arena(1, &stats);
    // First allocate refills the empty magazine with MAG_CAP/2 slots.
    rec* p = arena.allocate(0);
    EXPECT_EQ(arena.magazine_size(0), arena_t::MAG_CAP / 2 - 1);
    arena.deallocate(0, p);
    // Freed slot sits in the magazine and comes straight back.
    rec* q = arena.allocate(0);
    EXPECT_EQ(q, p);
    EXPECT_GT(stats.total(stat::records_reused), 0u);
    arena.deallocate(0, q);
}

TEST_F(ArenaAlloc, OverfullMagazineFlushesToShardFreeList) {
    debug_stats stats;
    arena_t arena(1, &stats);
    std::vector<rec*> held;
    // Hold more records than the magazine can cache, then free them all:
    // the magazine must overflow into the shard free list.
    for (int i = 0; i < arena_t::MAG_CAP * 3; ++i) {
        held.push_back(arena.allocate(0));
    }
    for (rec* p : held) arena.deallocate(0, p);
    EXPECT_LE(arena.magazine_size(0), arena_t::MAG_CAP);
    EXPECT_GT(arena.shard_free_records(0), 0);
    // A refill after draining the magazine pulls from the free list.
    const auto reused_before = stats.total(stat::records_reused);
    std::vector<rec*> again;
    for (int i = 0; i < arena_t::MAG_CAP * 2; ++i) {
        again.push_back(arena.allocate(0));
    }
    EXPECT_GT(stats.total(stat::records_reused), reused_before);
    for (rec* p : again) arena.deallocate(0, p);
}

TEST_F(ArenaTwoShards, SlabsAreStampedWithTheCarvingShard) {
    debug_stats stats;
    arena_t arena(2, &stats);
    ASSERT_EQ(arena.shards(), 2);
    // tid 0 -> shard 0, tid 1 -> shard 1 under the forced topology.
    rec* p0 = arena.allocate(0);
    rec* p1 = arena.allocate(1);
    EXPECT_EQ(arena_t::home_shard_of(p0), 0);
    EXPECT_EQ(arena_t::home_shard_of(p1), 1);
    arena.deallocate(0, p0);
    arena.deallocate(1, p1);
}

TEST_F(ArenaTwoShards, CrossThreadFreeReturnsToHomeShard) {
    debug_stats stats;
    arena_t arena(2, &stats);
    // Thread 0 (shard 0) allocates; thread 1 (shard 1) frees. After the
    // flush every record must land on shard 0's free list -- the home
    // stamped in its slab -- not on the freeing thread's shard.
    constexpr int N = arena_t::MAG_CAP * 2;
    std::vector<rec*> recs;
    for (int i = 0; i < N; ++i) {
        rec* p = arena.allocate(0);
        EXPECT_EQ(arena_t::home_shard_of(p), 0);
        recs.push_back(p);
    }
    for (rec* p : recs) arena.deallocate(1, p);
    arena.flush_magazine(1);
    EXPECT_EQ(arena.shard_free_records(0), N);
    EXPECT_EQ(arena.shard_free_records(1), 0);
    // Every cross-shard send was counted.
    EXPECT_EQ(stats.get(1, stat::arena_remote_frees),
              static_cast<std::uint64_t>(N));
}

TEST_F(ArenaTwoShards, LocalFreeIsNotCountedRemote) {
    debug_stats stats;
    arena_t arena(2, &stats);
    std::vector<rec*> recs;
    for (int i = 0; i < arena_t::MAG_CAP * 2; ++i) {
        recs.push_back(arena.allocate(0));
    }
    for (rec* p : recs) arena.deallocate(0, p);
    arena.flush_magazine(0);
    EXPECT_EQ(stats.total(stat::arena_remote_frees), 0u);
    EXPECT_EQ(arena.shard_free_records(1), 0);
}

TEST_F(ArenaTwoShards, ConcurrentChurnAcrossShards) {
    // Two threads on different shards allocate, exchange, and free
    // records concurrently: exercises the shard locks and the home-return
    // grouping under ASan/TSan-style scrutiny.
    debug_stats stats;
    arena_t arena(2, &stats);
    constexpr int ITERS = 20000;
    std::atomic<rec*> exchange{nullptr};
    std::atomic<bool> failed{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < 2; ++t) {
        workers.emplace_back([&, t] {
            std::vector<rec*> mine;
            for (int i = 0; i < ITERS; ++i) {
                if (mine.size() < 128 && (i & 3) != 3) {
                    rec* p = arena.allocate(t);
                    if (p == nullptr) {
                        failed = true;
                        return;
                    }
                    p->a = t;
                    p->b = i;
                    mine.push_back(p);
                } else if (!mine.empty()) {
                    arena.deallocate(t, mine.back());
                    mine.pop_back();
                }
                // Occasionally hand a record to the other thread, so
                // frees happen away from home.
                if ((i & 63) == 0 && !mine.empty()) {
                    rec* expected = nullptr;
                    if (exchange.compare_exchange_strong(expected,
                                                         mine.back())) {
                        mine.pop_back();
                    }
                } else if ((i & 63) == 32) {
                    if (rec* stranger = exchange.exchange(nullptr)) {
                        arena.deallocate(t, stranger);
                    }
                }
            }
            for (rec* p : mine) arena.deallocate(t, p);
        });
    }
    for (auto& w : workers) w.join();
    if (rec* leftover = exchange.exchange(nullptr)) {
        arena.deallocate(0, leftover);
    }
    EXPECT_FALSE(failed.load());
    // Accounting identity: every hand-out was counted exactly once
    // (fresh or reused) and everything handed out was freed again.
    EXPECT_EQ(stats.total(stat::records_freed),
              stats.total(stat::records_allocated) +
                  stats.total(stat::records_reused));
    // After flushing both magazines every slot that ever circulated is
    // on some shard's free list: at least one distinct slot per fresh
    // hand-out -- none lost.
    arena.flush_magazine(0);
    arena.flush_magazine(1);
    EXPECT_GE(arena.shard_free_records(0) + arena.shard_free_records(1),
              static_cast<long long>(stats.total(stat::records_allocated)));
}

TEST_F(ArenaAlloc, SingleShardHostDegradesCleanly) {
    debug_stats stats;
    arena_t arena(2, &stats);
    EXPECT_EQ(arena.shards(), 1);
    std::vector<rec*> recs;
    for (int i = 0; i < 500; ++i) recs.push_back(arena.allocate(0));
    for (rec* p : recs) arena.deallocate(1, p);  // cross-thread, same shard
    arena.flush_magazine(1);
    EXPECT_EQ(stats.total(stat::arena_remote_frees), 0u);
}

}  // namespace
}  // namespace smr::alloc
