// Tests for the lock-free external BST (src/ds/ellen_bst.h), typed across
// every reclamation scheme including DEBRA+ (its showcase structure).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "ds_test_util.h"
#include "sanitizer_util.h"

namespace smr {
namespace {

using testutil::key_t;
using testutil::val_t;

template <class Scheme>
class EllenBstTyped : public ::testing::Test {
  protected:
    using mgr_t = testutil::bst_mgr<Scheme>;
    using bst_t = ds::ellen_bst<key_t, val_t, mgr_t>;

    EllenBstTyped()
        : mgr_(2, testutil::fast_config<mgr_t>()), bst_(mgr_),
          h0_(mgr_.register_thread(0)) {}

    void SetUp() override {
        if (testutil::skip_leaky_cell<Scheme>()) {
            GTEST_SKIP() << "'none' leaks by design";
        }
    }

    typename mgr_t::accessor_t acc() { return mgr_.access(h0_); }

    mgr_t mgr_;
    bst_t bst_;
    typename mgr_t::handle_t h0_;  // destroyed before mgr_ (reverse order)
};

using BstSchemes =
    ::testing::Types<reclaim::reclaim_none, reclaim::reclaim_debra,
                     reclaim::reclaim_ebr, reclaim::reclaim_debra_plus,
                     reclaim::reclaim_hp>;
TYPED_TEST_SUITE(EllenBstTyped, BstSchemes);

TYPED_TEST(EllenBstTyped, EmptyTree) {
    EXPECT_FALSE(this->bst_.contains(this->acc(), 1));
    EXPECT_EQ(this->bst_.erase(this->acc(), 1), std::nullopt);
    EXPECT_EQ(this->bst_.size_slow(), 0);
    EXPECT_TRUE(this->bst_.validate_structure());
}

TYPED_TEST(EllenBstTyped, SingleInsert) {
    EXPECT_TRUE(this->bst_.insert(this->acc(), 42, 420));
    EXPECT_TRUE(this->bst_.contains(this->acc(), 42));
    EXPECT_EQ(this->bst_.find(this->acc(), 42), std::optional<val_t>(420));
    EXPECT_EQ(this->bst_.size_slow(), 1);
    EXPECT_TRUE(this->bst_.validate_structure());
}

TYPED_TEST(EllenBstTyped, InsertEraseRoundTrip) {
    EXPECT_TRUE(this->bst_.insert(this->acc(), 5, 50));
    EXPECT_EQ(this->bst_.erase(this->acc(), 5), std::optional<val_t>(50));
    EXPECT_FALSE(this->bst_.contains(this->acc(), 5));
    EXPECT_EQ(this->bst_.size_slow(), 0);
    EXPECT_TRUE(this->bst_.validate_structure());
}

TYPED_TEST(EllenBstTyped, DuplicateInsertFails) {
    EXPECT_TRUE(this->bst_.insert(this->acc(), 9, 90));
    EXPECT_FALSE(this->bst_.insert(this->acc(), 9, 91));
    EXPECT_EQ(this->bst_.find(this->acc(), 9), std::optional<val_t>(90));
}

TYPED_TEST(EllenBstTyped, EraseAbsent) {
    this->bst_.insert(this->acc(), 1, 10);
    EXPECT_EQ(this->bst_.erase(this->acc(), 2), std::nullopt);
    EXPECT_EQ(this->bst_.size_slow(), 1);
}

TYPED_TEST(EllenBstTyped, AscendingKeys) {
    for (key_t k = 0; k < 200; ++k) EXPECT_TRUE(this->bst_.insert(this->acc(), k, k));
    EXPECT_EQ(this->bst_.size_slow(), 200);
    EXPECT_TRUE(this->bst_.validate_structure());
    for (key_t k = 0; k < 200; ++k) EXPECT_TRUE(this->bst_.contains(this->acc(), k));
    EXPECT_FALSE(this->bst_.contains(this->acc(), 200));
}

TYPED_TEST(EllenBstTyped, DescendingKeys) {
    for (key_t k = 200; k > 0; --k) EXPECT_TRUE(this->bst_.insert(this->acc(), k, -k));
    EXPECT_EQ(this->bst_.size_slow(), 200);
    EXPECT_TRUE(this->bst_.validate_structure());
}

TYPED_TEST(EllenBstTyped, DeleteEveryOther) {
    for (key_t k = 0; k < 100; ++k) this->bst_.insert(this->acc(), k, k);
    for (key_t k = 0; k < 100; k += 2) {
        EXPECT_EQ(this->bst_.erase(this->acc(), k), std::optional<val_t>(k));
    }
    EXPECT_EQ(this->bst_.size_slow(), 50);
    for (key_t k = 0; k < 100; ++k) {
        EXPECT_EQ(this->bst_.contains(this->acc(), k), k % 2 == 1);
    }
    EXPECT_TRUE(this->bst_.validate_structure());
}

TYPED_TEST(EllenBstTyped, DrainEntirely) {
    for (key_t k = 0; k < 64; ++k) this->bst_.insert(this->acc(), k, k);
    for (key_t k = 0; k < 64; ++k) {
        EXPECT_TRUE(this->bst_.erase(this->acc(), k).has_value());
    }
    EXPECT_EQ(this->bst_.size_slow(), 0);
    EXPECT_TRUE(this->bst_.validate_structure());
    // The tree still works after being emptied.
    EXPECT_TRUE(this->bst_.insert(this->acc(), 5, 55));
    EXPECT_TRUE(this->bst_.contains(this->acc(), 5));
}

TYPED_TEST(EllenBstTyped, DifferentialAgainstStdMap) {
    const long result =
        testutil::differential_test(this->bst_, this->acc(), 0xbeef, 6000, 128);
    EXPECT_GT(result, 0) << "divergence at op " << -result - 1;
    EXPECT_TRUE(this->bst_.validate_structure());
}

TYPED_TEST(EllenBstTyped, ChurnReclaimsMemory) {
    for (int round = 0; round < 800; ++round) {
        const key_t k = round % 4;
        this->bst_.insert(this->acc(), k, round);
        this->bst_.erase(this->acc(), k);
    }
    EXPECT_EQ(this->bst_.size_slow(), 0);
    EXPECT_TRUE(this->bst_.validate_structure());
    if (std::string(TypeParam::name) != "none") {
        EXPECT_GT(this->mgr_.stats().total(stat::records_pooled) +
                      this->mgr_.stats().total(stat::records_reused),
                  0u);
    }
}

TYPED_TEST(EllenBstTyped, UpdateWordsAreVersionStamped) {
    // The recycled-address ABA fix (DESIGN.md Section 7): every CAS on a
    // node's update word advances the version packed in its high bits, so
    // expected values compare (pointer, state, version). Observe the
    // monotone version through the public update word: the first insert
    // flags the root (IFLAG) and unflags it (CLEAN) -- two CASes.
    using bst_t = typename TestFixture::bst_t;
    using sp = typename bst_t::sp;
    auto* root = this->bst_.root();
    const std::uintptr_t w0 = root->update.load();
    EXPECT_EQ(sp::ver(w0), 0u);
    EXPECT_EQ(sp::state(w0), ds::BST_CLEAN);
    ASSERT_TRUE(this->bst_.insert(this->acc(), 10, 10));
    const std::uintptr_t w1 = root->update.load();
    EXPECT_EQ(sp::ver(w1), 2u);  // flag + unflag
    EXPECT_EQ(sp::state(w1), ds::BST_CLEAN);
    EXPECT_NE(sp::ptr(w1), nullptr);  // the insert's descriptor, CLEAN
    // A second root-level update keeps counting upward: versions never
    // reset when the descriptor pointer changes.
    ASSERT_TRUE(this->bst_.erase(this->acc(), 10).has_value());
    const std::uintptr_t w2 = root->update.load();
    EXPECT_GT(sp::ver(w2), sp::ver(w1));
    EXPECT_EQ(sp::state(w2), ds::BST_CLEAN);
}

TYPED_TEST(EllenBstTyped, NegativeAndExtremeKeys) {
    EXPECT_TRUE(this->bst_.insert(this->acc(), -100, 1));
    EXPECT_TRUE(this->bst_.insert(this->acc(), 0, 2));
    EXPECT_TRUE(this->bst_.insert(this->acc(), 1LL << 60, 3));
    EXPECT_TRUE(this->bst_.insert(this->acc(), -(1LL << 60), 4));
    EXPECT_EQ(this->bst_.size_slow(), 4);
    EXPECT_TRUE(this->bst_.validate_structure());
    EXPECT_EQ(this->bst_.find(this->acc(), -(1LL << 60)), std::optional<val_t>(4));
}

}  // namespace
}  // namespace smr
