// Tests for the three-epoch limbo bags (src/reclaim/limbo_bags.h): the
// two-rotation grace period and the full-block handoff to the pool.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "alloc/allocator_new.h"
#include "mem/block_pool.h"
#include "pool/pool_perthread_shared.h"
#include "reclaim/epoch_core.h"
#include "reclaim/limbo_bags.h"
#include "util/debug_stats.h"

namespace smr::reclaim {
namespace {

struct rec {
    long v;
};
constexpr int B = 4;

class LimboBagsTest : public ::testing::Test {
  protected:
    using alloc_t = alloc::allocator_new<rec>;
    using pool_t = pool::pool_perthread_shared<rec, alloc_t, B>;

    debug_stats stats_;
    alloc_t alloc_{2, &stats_};
    mem::block_pool_array<rec, B> bpools_{2, &stats_};
    pool_t pool_{2, alloc_, bpools_, &stats_};
    epoch_core core_{2, epoch_config{}, &stats_};
    limbo_bags<rec, pool_t, B> limbo_{2, core_, pool_, bpools_, &stats_};
};

TEST_F(LimboBagsTest, RetireGoesToCurrentBag) {
    rec* r = alloc_.allocate(0);
    limbo_.retire(0, r);
    EXPECT_EQ(limbo_.limbo_size(0), 1);
    EXPECT_EQ(limbo_.limbo_size(1), 0);
    EXPECT_EQ(limbo_.total_limbo_size(), 1);
    EXPECT_EQ(stats_.get(0, stat::records_retired), 1u);
}

TEST_F(LimboBagsTest, FullBlocksReachPoolAfterThreeRotations) {
    // Retire exactly B records (one full block + empty head). After the
    // bag has rotated back around (3 rotations), the full block moves to
    // the pool; the head-block stragglers stay behind.
    std::vector<rec*> recs;
    for (int i = 0; i < B; ++i) {
        rec* r = alloc_.allocate(0);
        recs.push_back(r);
        limbo_.retire(0, r);
    }
    EXPECT_EQ(limbo_.limbo_size(0), B);
    limbo_.rotate_and_reclaim(0);  // now in bag 1
    limbo_.rotate_and_reclaim(0);  // now in bag 2
    EXPECT_EQ(limbo_.limbo_size(0), B);  // still waiting (grace period)
    EXPECT_EQ(stats_.total(stat::records_pooled), 0u);
    limbo_.rotate_and_reclaim(0);  // bag 0 again: reclaim its full blocks
    EXPECT_EQ(stats_.total(stat::records_pooled),
              static_cast<std::uint64_t>(B));
    EXPECT_EQ(limbo_.limbo_size(0), 0);
    // Pool now serves those records back.
    std::set<rec*> reused;
    for (int i = 0; i < B; ++i) reused.insert(pool_.allocate(0));
    for (rec* r : recs) EXPECT_TRUE(reused.count(r));
    for (rec* r : reused) pool_.deallocate(0, r);
}

TEST_F(LimboBagsTest, HeadBlockRemainderWaitsForNextCycle) {
    // Fewer than B records never fill a block, so rotation keeps them (the
    // paper: each limbo bag may hold up to B-1 records retired 2+ epochs
    // ago; correctness is unaffected).
    rec* r = alloc_.allocate(0);
    limbo_.retire(0, r);
    for (int i = 0; i < 6; ++i) limbo_.rotate_and_reclaim(0);
    EXPECT_EQ(stats_.total(stat::records_pooled), 0u);
    EXPECT_EQ(limbo_.limbo_size(0), 1);
}

TEST_F(LimboBagsTest, RotationCountsTracked) {
    limbo_.rotate_and_reclaim(0);
    limbo_.rotate_and_reclaim(0);
    limbo_.rotate_and_reclaim(1);
    EXPECT_EQ(stats_.get(0, stat::rotations), 2u);
    EXPECT_EQ(stats_.get(1, stat::rotations), 1u);
}

TEST_F(LimboBagsTest, PerThreadBagsIndependent) {
    for (int i = 0; i < 2 * B; ++i) limbo_.retire(0, alloc_.allocate(0));
    for (int i = 0; i < B; ++i) limbo_.retire(1, alloc_.allocate(1));
    EXPECT_EQ(limbo_.limbo_size(0), 2 * B);
    EXPECT_EQ(limbo_.limbo_size(1), B);
    for (int i = 0; i < 3; ++i) limbo_.rotate_and_reclaim(0);
    // Thread 1 never rotated; its records are untouched.
    EXPECT_EQ(limbo_.limbo_size(1), B);
    EXPECT_EQ(limbo_.limbo_size(0), 0);
}

TEST_F(LimboBagsTest, CurrentBagBlocksGaugesPressure) {
    EXPECT_EQ(limbo_.current_bag_blocks(0), 1);  // empty head block
    for (int i = 0; i < 3 * B; ++i) limbo_.retire(0, alloc_.allocate(0));
    EXPECT_EQ(limbo_.current_bag_blocks(0), 4);
}

TEST_F(LimboBagsTest, GracePeriodNeverShortCircuits) {
    // Records retired in different epochs land in different bags; a record
    // must never reach the pool after fewer than 2 subsequent rotations.
    std::vector<std::set<rec*>> retired_per_epoch(6);
    for (int epoch = 0; epoch < 6; ++epoch) {
        for (int i = 0; i < B; ++i) {
            rec* r = alloc_.allocate(0);
            retired_per_epoch[static_cast<std::size_t>(epoch)].insert(r);
            limbo_.retire(0, r);
        }
        const auto pooled_before = stats_.total(stat::records_pooled);
        limbo_.rotate_and_reclaim(0);
        const auto pooled_now = stats_.total(stat::records_pooled);
        // Whatever was pooled this rotation must come from epoch-3 or
        // earlier (full blocks only). Epochs 0..2 cannot pool anything.
        if (epoch < 2) { EXPECT_EQ(pooled_now, pooled_before); }
    }
    EXPECT_GT(stats_.total(stat::records_pooled), 0u);
}

}  // namespace
}  // namespace smr::reclaim
