// Tests for the Pool policies (src/pool/): discarding and the paper's
// per-thread + shared object pool -- including the NUMA-sharded shared
// tier (blocks return to their home shard, steals prefer the local shard,
// and the steal/remote counters surface through debug_stats).
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "alloc/allocator_bump.h"
#include "alloc/allocator_new.h"
#include "mem/block_pool.h"
#include "pool/pool_discard.h"
#include "pool/pool_perthread_shared.h"
#include "topo/topology.h"
#include "util/debug_stats.h"

namespace smr::pool {
namespace {

struct rec {
    long v;
};
constexpr int B = 4;

template <class Pool, class Alloc>
mem::block_chain<rec, B> make_chain(mem::block_pool<rec, B>& bp, Alloc& alloc,
                                    int blocks, int tid = 0) {
    mem::block_chain<rec, B> c;
    mem::block<rec, B>* prev = nullptr;
    for (int i = 0; i < blocks; ++i) {
        auto* blk = bp.acquire();
        for (int j = 0; j < B; ++j) blk->push(alloc.allocate(tid));
        if (c.head == nullptr) {
            c.head = blk;
        } else {
            prev->next = blk;
        }
        prev = blk;
        c.tail = blk;
        ++c.count;
    }
    return c;
}

TEST(PoolDiscard, ReleaseDropsRecordsKeepsCounting) {
    debug_stats stats;
    alloc::allocator_bump<rec> alloc(1, &stats);
    mem::block_pool_array<rec, B> bps(1, &stats);
    pool_discard<rec, alloc::allocator_bump<rec>, B> p(1, alloc, bps, &stats);
    rec* r = p.allocate(0);
    p.release(0, r);
    EXPECT_EQ(stats.total(stat::records_pooled), 1u);
    EXPECT_EQ(stats.total(stat::records_freed), 0u);  // dropped, not freed
    // Allocation always comes fresh (Experiment 1's "no reuse" property).
    rec* r2 = p.allocate(0);
    EXPECT_NE(r2, nullptr);
    EXPECT_EQ(stats.total(stat::records_reused), 0u);
}

TEST(PoolDiscard, AcceptChainRecyclesBlocksOnly) {
    debug_stats stats;
    alloc::allocator_bump<rec> alloc(1, &stats);
    mem::block_pool_array<rec, B> bps(1, &stats);
    pool_discard<rec, alloc::allocator_bump<rec>, B> p(1, alloc, bps, &stats);
    auto chain = make_chain<decltype(p)>(bps[0], alloc, 2);
    p.accept_chain(0, chain);
    EXPECT_EQ(stats.total(stat::records_pooled), 2u * B);
    EXPECT_EQ(bps[0].cached(), 2);
}

class PerThreadSharedPoolTest : public ::testing::Test {
  protected:
    using alloc_t = alloc::allocator_new<rec>;
    using pool_t = pool_perthread_shared<rec, alloc_t, B>;

    debug_stats stats_;
    alloc_t alloc_{2, &stats_};
    mem::block_pool_array<rec, B> bps_{2, &stats_};
    pool_t pool_{2, alloc_, bps_, &stats_};
};

TEST_F(PerThreadSharedPoolTest, AllocateFallsBackToAllocator) {
    rec* r = pool_.allocate(0);
    EXPECT_NE(r, nullptr);
    EXPECT_EQ(stats_.total(stat::records_allocated), 1u);
    pool_.deallocate(0, r);
}

TEST_F(PerThreadSharedPoolTest, ReleaseThenAllocateReuses) {
    rec* r = pool_.allocate(0);
    pool_.release(0, r);
    EXPECT_EQ(pool_.local_size(0), 1);
    rec* r2 = pool_.allocate(0);
    EXPECT_EQ(r2, r);
    EXPECT_EQ(stats_.total(stat::records_reused), 1u);
    pool_.deallocate(0, r2);
}

TEST_F(PerThreadSharedPoolTest, OverflowSpillsFullBlocksToSharedBag) {
    // Fill thread 0's local bag past its block budget.
    const int target_blocks = pool_t::LOCAL_MAX_BLOCKS + 4;
    std::vector<rec*> recs;
    for (int i = 0; i < target_blocks * B; ++i) {
        rec* r = alloc_.allocate(0);
        recs.push_back(r);
        pool_.release(0, r);
    }
    EXPECT_GT(pool_.shared_blocks(), 0);
    // Thread 1 starts empty and steals from the shared bag.
    rec* stolen = pool_.allocate(1);
    EXPECT_NE(stolen, nullptr);
    EXPECT_GT(stats_.get(1, stat::records_reused), 0u);
    pool_.release(1, stolen);  // back to a bag so teardown frees it
}

TEST_F(PerThreadSharedPoolTest, AcceptChainRespectsLocalBudget) {
    auto chain = make_chain<pool_t>(bps_[0], alloc_,
                                    pool_t::LOCAL_MAX_BLOCKS + 8);
    pool_.accept_chain(0, chain);
    EXPECT_GE(pool_.shared_blocks(), 8);
    EXPECT_LE(pool_.local_size(0),
              static_cast<long long>(pool_t::LOCAL_MAX_BLOCKS + 1) * B);
}

TEST_F(PerThreadSharedPoolTest, CrossThreadRecordCirculation) {
    // Thread 0 releases; thread 1 allocates. Records flow through the
    // shared bag without ever touching the allocator again.
    std::set<rec*> originals;
    for (int i = 0; i < (pool_t::LOCAL_MAX_BLOCKS + 8) * B; ++i) {
        rec* r = pool_.allocate(0);
        originals.insert(r);
    }
    for (rec* r : originals) pool_.release(0, r);
    const auto allocated_before = stats_.total(stat::records_allocated);
    int recycled = 0;
    for (std::size_t i = 0; i < originals.size(); ++i) {
        rec* r = pool_.allocate(1);
        if (originals.count(r)) ++recycled;
        pool_.deallocate(1, r);  // hand storage back to the allocator
    }
    EXPECT_GT(recycled, 0);
    // Thread 0's local bag keeps up to LOCAL_MAX_BLOCKS+1 blocks; only the
    // overflow reached the shared bag, so thread 1 can recycle exactly that
    // overflow and must allocate fresh storage for the rest.
    EXPECT_LT(static_cast<std::size_t>(stats_.total(stat::records_allocated) -
                                       allocated_before),
              originals.size());
    EXPECT_GE(recycled, 8 * B);  // at least the 8 overflow blocks circulated
}

// ---- sharded shared tier -------------------------------------------------

/// allocator_new plus the home-lookup hook the pool probes for: every
/// record's home is a fixed shard, so block routing is fully predictable.
struct home_stamped_alloc : alloc::allocator_new<rec> {
    using alloc::allocator_new<rec>::allocator_new;
    static int forced_home;
    static int home_shard_of(const rec*) noexcept { return forced_home; }
};
int home_stamped_alloc::forced_home = 0;

/// Forces a 2-shard topology (tid % 2) around each test; pools snapshot
/// the shard count at construction, so construction happens inside.
class ShardedPoolTest : public ::testing::Test {
  protected:
    void SetUp() override {
        topo::set_topology_for_testing(topo::topology::forced(2, 4));
    }
    void TearDown() override { topo::reset_topology_for_testing(); }

    /// Overflows `blocks` full blocks out of `tid`'s local bag into the
    /// shared tier (fills past the local budget).
    template <class Pool, class Alloc>
    void overflow_from(Pool& pool, Alloc& alloc, int tid, int blocks) {
        const int total = (Pool::LOCAL_MAX_BLOCKS + blocks) * B;
        for (int i = 0; i < total; ++i) {
            pool.release(tid, alloc.allocate(tid));
        }
    }
};

TEST_F(ShardedPoolTest, OverflowLandsOnTheLocalShard) {
    debug_stats stats;
    alloc::allocator_new<rec> alloc(2, &stats);
    mem::block_pool_array<rec, B> bps(2, &stats);
    pool_perthread_shared<rec, alloc::allocator_new<rec>, B> pool(
        2, alloc, bps, &stats);
    ASSERT_EQ(pool.shards(), 2);
    // allocator_new has no home hook, so blocks home to the pushing
    // thread's shard: tid 0 -> shard 0, tid 1 -> shard 1.
    overflow_from(pool, alloc, 0, 4);
    EXPECT_GE(pool.shared_blocks(0), 4);
    EXPECT_EQ(pool.shared_blocks(1), 0);
    overflow_from(pool, alloc, 1, 4);
    EXPECT_GE(pool.shared_blocks(1), 4);
    EXPECT_EQ(stats.total(stat::pool_remote_returns), 0u);
}

TEST_F(ShardedPoolTest, StealPrefersLocalShardThenRemote) {
    debug_stats stats;
    alloc::allocator_new<rec> alloc(4, &stats);
    mem::block_pool_array<rec, B> bps(4, &stats);
    pool_perthread_shared<rec, alloc::allocator_new<rec>, B> pool(
        4, alloc, bps, &stats);
    // Seed both shards: tid 0 fills shard 0, tid 1 fills shard 1.
    overflow_from(pool, alloc, 0, 3);
    overflow_from(pool, alloc, 1, 3);
    const long long shard1_before = pool.shared_blocks(1);
    // tid 2 (shard 0) steals: must drain shard 0 before touching shard 1.
    rec* p = pool.allocate(2);
    ASSERT_NE(p, nullptr);
    EXPECT_GT(stats.get(2, stat::pool_shared_steals), 0u);
    EXPECT_EQ(stats.get(2, stat::pool_remote_steals), 0u);
    EXPECT_EQ(pool.shared_blocks(1), shard1_before);
    pool.release(2, p);
    // Drain shard 0 completely (freeing the records outright so nothing
    // flows back into the shared tier); the next steal must come from
    // shard 1 and count as remote.
    while (pool.shared_blocks(0) > 0) {
        rec* q = pool.allocate(2);
        ASSERT_NE(q, nullptr);
        pool.deallocate(2, q);
    }
    stats.clear();
    std::vector<rec*> taken;
    while (stats.get(2, stat::pool_remote_steals) == 0u &&
           pool.shared_blocks(1) > 0) {
        rec* q = pool.allocate(2);
        ASSERT_NE(q, nullptr);
        taken.push_back(q);
    }
    EXPECT_GT(stats.get(2, stat::pool_remote_steals), 0u);
    for (rec* q : taken) pool.release(2, q);
}

TEST_F(ShardedPoolTest, HomeAwareAllocatorRoutesBlocksHome) {
    debug_stats stats;
    home_stamped_alloc alloc(2, &stats);
    mem::block_pool_array<rec, B> bps(2, &stats);
    pool_perthread_shared<rec, home_stamped_alloc, B> pool(2, alloc, bps,
                                                           &stats);
    // Every record claims home shard 1, but thread 0 (shard 0) does the
    // overflowing: blocks must land on shard 1 and count as remote
    // returns -- the producer/consumer cross-socket case.
    home_stamped_alloc::forced_home = 1;
    overflow_from(pool, alloc, 0, 4);
    EXPECT_EQ(pool.shared_blocks(0), 0);
    EXPECT_GE(pool.shared_blocks(1), 4);
    EXPECT_GT(stats.get(0, stat::pool_remote_returns), 0u);
    home_stamped_alloc::forced_home = 0;
}

TEST_F(ShardedPoolTest, SingleShardTopologyHasNoRemoteTraffic) {
    topo::set_topology_for_testing(topo::topology::single_node(4));
    debug_stats stats;
    alloc::allocator_new<rec> alloc(2, &stats);
    mem::block_pool_array<rec, B> bps(2, &stats);
    pool_perthread_shared<rec, alloc::allocator_new<rec>, B> pool(
        2, alloc, bps, &stats);
    EXPECT_EQ(pool.shards(), 1);
    overflow_from(pool, alloc, 0, 4);
    while (pool.shared_blocks() > 0) {
        rec* p = pool.allocate(1);
        ASSERT_NE(p, nullptr);
        pool.deallocate(1, p);
    }
    EXPECT_GT(stats.total(stat::pool_shared_steals), 0u);
    EXPECT_EQ(stats.total(stat::pool_remote_steals), 0u);
    EXPECT_EQ(stats.total(stat::pool_remote_returns), 0u);
}

TEST_F(PerThreadSharedPoolTest, ConcurrentReleaseAllocateChurn) {
    constexpr int THREADS = 2;
    constexpr int ITERS = 20000;
    std::vector<std::thread> workers;
    std::atomic<bool> failed{false};
    for (int t = 0; t < THREADS; ++t) {
        workers.emplace_back([&, t] {
            std::vector<rec*> mine;
            for (int i = 0; i < ITERS; ++i) {
                if (mine.size() < 64 && (i & 3) != 3) {
                    rec* r = pool_.allocate(t);
                    if (r == nullptr) {
                        failed = true;
                        return;
                    }
                    r->v = t;
                    mine.push_back(r);
                } else if (!mine.empty()) {
                    pool_.release(t, mine.back());
                    mine.pop_back();
                }
            }
            for (rec* r : mine) pool_.release(t, r);
        });
    }
    for (auto& w : workers) w.join();
    EXPECT_FALSE(failed.load());
}

}  // namespace
}  // namespace smr::pool
