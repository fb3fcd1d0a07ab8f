// Tests for the block-structured bag (src/mem/blockbag.h), including the
// head-block invariant and take_unkept, the scan-and-free partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "mem/block_pool.h"
#include "mem/blockbag.h"

namespace smr::mem {
namespace {

struct rec {
    long v;
};

class BlockbagTest : public ::testing::Test {
  protected:
    static constexpr int B = 4;  // small blocks make invariants easy to hit
    block_pool<rec, B> pool_{64, nullptr, 0};

    std::vector<rec> make_recs(int n) {
        std::vector<rec> v(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)].v = i;
        return v;
    }
};

TEST_F(BlockbagTest, StartsEmpty) {
    blockbag<rec, B> bag(pool_);
    EXPECT_TRUE(bag.empty());
    EXPECT_EQ(bag.size(), 0);
    EXPECT_EQ(bag.size_in_blocks(), 1);  // the (empty) head block
    EXPECT_EQ(bag.remove(), nullptr);
}

TEST_F(BlockbagTest, AddRemoveSingle) {
    blockbag<rec, B> bag(pool_);
    rec r{7};
    bag.add(&r);
    EXPECT_FALSE(bag.empty());
    EXPECT_EQ(bag.size(), 1);
    EXPECT_EQ(bag.remove(), &r);
    EXPECT_TRUE(bag.empty());
}

TEST_F(BlockbagTest, SizeTracksManyAdds) {
    blockbag<rec, B> bag(pool_);
    auto recs = make_recs(100);
    for (auto& r : recs) bag.add(&r);
    EXPECT_EQ(bag.size(), 100);
    long long removed = 0;
    while (bag.remove() != nullptr) ++removed;
    EXPECT_EQ(removed, 100);
}

TEST_F(BlockbagTest, HeadBlockInvariant) {
    // The head block is always non-full; subsequent blocks are always full.
    blockbag<rec, B> bag(pool_);
    auto recs = make_recs(3 * B);
    for (int i = 0; i < 3 * B; ++i) {
        bag.add(&recs[static_cast<std::size_t>(i)]);
        // size() must be consistent with the block invariant:
        // (blocks-1)*B + head_size where head_size in [0, B).
        const long long sz = bag.size();
        const int blocks = bag.size_in_blocks();
        EXPECT_EQ(sz, i + 1);
        EXPECT_GE(sz, static_cast<long long>(blocks - 1) * B);
        EXPECT_LT(sz - static_cast<long long>(blocks - 1) * B, B);
    }
}

TEST_F(BlockbagTest, RemoveReturnsEveryAddedRecordOnce) {
    blockbag<rec, B> bag(pool_);
    auto recs = make_recs(37);
    std::set<rec*> expected;
    for (auto& r : recs) {
        bag.add(&r);
        expected.insert(&r);
    }
    std::set<rec*> got;
    while (rec* p = bag.remove()) EXPECT_TRUE(got.insert(p).second);
    EXPECT_EQ(got, expected);
}

TEST_F(BlockbagTest, TakeFullBlocksLeavesHead) {
    blockbag<rec, B> bag(pool_);
    auto recs = make_recs(3 * B + 2);
    for (auto& r : recs) bag.add(&r);
    EXPECT_EQ(bag.size_in_blocks(), 4);
    auto chain = bag.take_full_blocks();
    EXPECT_EQ(chain.count, 3);
    EXPECT_EQ(bag.size_in_blocks(), 1);
    EXPECT_EQ(bag.size(), 2);  // leftovers in the head block
    // Chain holds the other 3*B records, all full blocks.
    int chained = 0;
    for (auto* b = chain.head; b != nullptr; b = b->next_relaxed()) {
        EXPECT_TRUE(b->full());
        chained += b->size;
        if (b->next_relaxed() == nullptr) { EXPECT_EQ(b, chain.tail); }
    }
    EXPECT_EQ(chained, 3 * B);
    // Return blocks to the pool to avoid leaking them.
    for (auto* b = chain.head; b != nullptr;) {
        auto* next = b->next_relaxed();
        b->size = 0;
        pool_.release(b);
        b = next;
    }
}

TEST_F(BlockbagTest, TakeFullBlocksOnEmptyBag) {
    blockbag<rec, B> bag(pool_);
    auto chain = bag.take_full_blocks();
    EXPECT_TRUE(chain.empty());
    EXPECT_EQ(chain.count, 0);
}

TEST_F(BlockbagTest, AddAndPopFullBlock) {
    blockbag<rec, B> bag(pool_);
    auto recs = make_recs(B);
    auto* blk = pool_.acquire();
    for (auto& r : recs) blk->push(&r);
    EXPECT_TRUE(blk->full());
    bag.add_full_block(blk);
    EXPECT_EQ(bag.size(), B);
    EXPECT_EQ(bag.size_in_blocks(), 2);
    auto* popped = bag.pop_full_block();
    EXPECT_EQ(popped, blk);
    EXPECT_EQ(bag.size(), 0);
    EXPECT_EQ(bag.pop_full_block(), nullptr);
    blk->size = 0;
    pool_.release(blk);
}

// ---- take_unkept: the scan-and-free partition ----------------------------

/// Where every record ended up: drain_values empties a bag, chain_values
/// a shed chain (releasing its blocks), each into a multiset of values.
template <int B>
std::multiset<long> drain_values(blockbag<rec, B>& bag) {
    std::multiset<long> v;
    while (rec* p = bag.remove()) v.insert(p->v);
    return v;
}
template <int B>
std::multiset<long> chain_values(block_chain<rec, B>& chain,
                                 block_pool<rec, B>& pool) {
    std::multiset<long> v;
    for (auto* b = chain.head; b != nullptr;) {
        EXPECT_TRUE(b->full());  // only full blocks are ever shed
        for (int i = 0; i < b->size; ++i) v.insert(b->entries[i]->v);
        if (b->next_relaxed() == nullptr) {
            EXPECT_EQ(b, chain.tail);
        }
        auto* next = b->next_relaxed();
        b->size = 0;
        pool.release(b);
        b = next;
    }
    return v;
}

TEST_F(BlockbagTest, TakeUnkeptShedsRejectedBlocksAfterTheKeptPrefix) {
    // The scan's common case: a few kept records, wherever they sit, move
    // to the front, and every full block after them goes to the pool.
    blockbag<rec, B> bag(pool_);
    auto recs = make_recs(4 * B);
    for (auto& r : recs) bag.add(&r);
    std::multiset<long> asked;
    auto chain = bag.take_unkept([&](rec* p) {
        asked.insert(p->v);  // one call per record, every record
        return p->v < 3;
    });
    std::multiset<long> all;
    for (auto& r : recs) all.insert(r.v);
    EXPECT_EQ(asked, all);
    // The three kept records fill the first non-empty block but one slot,
    // so that block stays and the three after it are shed.
    EXPECT_EQ(chain.count, 3);
    EXPECT_EQ(bag.size_in_blocks(), 2);  // empty head + the kept block
    const auto shed = chain_values(chain, pool_);
    for (long v : shed) EXPECT_GE(v, 3);
    const auto kept = drain_values(bag);
    EXPECT_EQ(kept.count(0) + kept.count(1) + kept.count(2), 3u);
    EXPECT_EQ(kept.size() + shed.size(), all.size());
}

TEST_F(BlockbagTest, TakeUnkeptNothingKeptShedsEveryFullBlock) {
    // Nothing kept: the boundary never leaves the first non-empty block,
    // which must be shed too. With an empty head that block is a full one.
    for (int head : {0, 2}) {
        blockbag<rec, B> bag(pool_);
        auto recs = make_recs(3 * B + head);
        for (auto& r : recs) bag.add(&r);
        auto chain = bag.take_unkept([](rec*) { return false; });
        EXPECT_EQ(chain.count, 3) << "head=" << head;
        EXPECT_EQ(bag.size_in_blocks(), 1) << "head=" << head;
        EXPECT_EQ(bag.size(), head);  // the partial head block stays
        EXPECT_EQ(chain_values(chain, pool_).size(),
                  static_cast<std::size_t>(3 * B));
        drain_values(bag);
    }
}

TEST_F(BlockbagTest, TakeUnkeptEverythingKeptShedsNothing) {
    for (int n : {0, 2 * B, 2 * B + 1}) {
        blockbag<rec, B> bag(pool_);
        auto recs = make_recs(n);
        for (auto& r : recs) bag.add(&r);
        int asked = 0;
        auto chain = bag.take_unkept([&](rec*) {
            ++asked;
            return true;
        });
        EXPECT_EQ(asked, n);
        EXPECT_TRUE(chain.empty()) << "n=" << n;
        EXPECT_EQ(bag.size(), n);
        EXPECT_EQ(drain_values(bag).size(), static_cast<std::size_t>(n));
    }
}

TEST_F(BlockbagTest, TakeUnkeptKeptOnlyInTheHeadBlock) {
    // The head holds the newest records; keep two of its three. The
    // boundary stays in the head, so every full block is shed and the
    // head keeps both kept records and the rejected one beside them.
    blockbag<rec, B> bag(pool_);
    auto recs = make_recs(3 * B + 3);
    for (auto& r : recs) bag.add(&r);
    auto chain = bag.take_unkept(
        [](rec* p) { return p->v == 3 * B || p->v == 3 * B + 2; });
    EXPECT_EQ(chain.count, 3);
    EXPECT_EQ(bag.size_in_blocks(), 1);
    const auto shed = chain_values(chain, pool_);
    EXPECT_EQ(shed.size(), static_cast<std::size_t>(3 * B));
    for (long v : shed) EXPECT_LT(v, 3 * B);
    EXPECT_EQ(drain_values(bag),
              (std::multiset<long>{3 * B, 3 * B + 1, 3 * B + 2}));
}

// Property sweep: for many (adds, removes) interleavings the bag behaves
// like a multiset of pointers and maintains the block invariant.
class BlockbagProperty : public ::testing::TestWithParam<int> {};

TEST_P(BlockbagProperty, RandomizedMultisetBehaviour) {
    const int seed = GetParam();
    block_pool<rec, 4> pool(64, nullptr, 0);
    blockbag<rec, 4> bag(pool);
    std::vector<rec> storage(512);
    std::multiset<rec*> model;
    std::uint64_t rng = static_cast<std::uint64_t>(seed) * 2654435761u + 1;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    std::size_t next_rec = 0;
    for (int step = 0; step < 2000; ++step) {
        if (next() % 2 == 0 && next_rec < storage.size()) {
            rec* p = &storage[next_rec++];
            bag.add(p);
            model.insert(p);
        } else {
            rec* p = bag.remove();
            if (p == nullptr) {
                EXPECT_TRUE(model.empty());
            } else {
                auto it = model.find(p);
                ASSERT_NE(it, model.end());
                model.erase(it);
            }
        }
        EXPECT_EQ(bag.size(), static_cast<long long>(model.size()));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockbagProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace smr::mem
