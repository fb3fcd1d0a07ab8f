// Tests for the Record Manager abstraction (src/recordmgr/record_manager.h):
// the paper's Section-6 claim that one data structure code base composes
// with any {Reclaimer, Allocator, Pool} combination by changing a single
// type, with scheme-specific operations compiling to no-ops.
#include <gtest/gtest.h>

#include <set>
#include <string_view>
#include <tuple>
#include <vector>

#include "recordmgr/record_manager.h"
#include "reclaim/era/reclaimer_he.h"
#include "reclaim/era/reclaimer_ibr.h"
#include "reclaim/reclaimer_debra.h"
#include "reclaim/reclaimer_debra_plus.h"
#include "reclaim/reclaimer_hp.h"
#include "reclaim/reclaimer_none.h"
#include "sanitizer_util.h"

namespace smr {
namespace {

struct small_rec {
    long v;
};
struct big_rec {
    long payload[32];
};

// ---- the composition matrix: every scheme x allocator x pool ------------

template <class Mgr>
void exercise_manager() {
    Mgr mgr(2);
    mgr.init_thread(0);
    mgr.leave_qstate(0);
    auto* a = mgr.template new_record<small_rec>(0);
    a->v = 1;
    auto* b = mgr.template new_record<big_rec>(0);
    b->payload[31] = 2;
    mgr.template retire<small_rec>(0, a);
    mgr.template retire<big_rec>(0, b);
    mgr.enter_qstate(0);
    for (int i = 0; i < 50; ++i) {
        mgr.leave_qstate(0);
        mgr.enter_qstate(0);
    }
    mgr.deinit_thread(0);
    SUCCEED();
}

template <class Scheme>
void exercise_scheme() {
    exercise_manager<
        record_manager<Scheme, alloc_malloc, pool_shared, small_rec, big_rec>>();
    exercise_manager<
        record_manager<Scheme, alloc_bump, pool_discarding, small_rec, big_rec>>();
    exercise_manager<
        record_manager<Scheme, alloc_bump, pool_shared, small_rec, big_rec>>();
}

TEST(RecordManager, MatrixNone) {
    if (testutil::kLeakChecked)
        GTEST_SKIP() << "'none' leaks retired records by design";
    exercise_scheme<reclaim::reclaim_none>();
}
TEST(RecordManager, MatrixDebra) { exercise_scheme<reclaim::reclaim_debra>(); }
TEST(RecordManager, MatrixEbr) { exercise_scheme<reclaim::reclaim_ebr>(); }
TEST(RecordManager, MatrixDebraPlus) {
    exercise_scheme<reclaim::reclaim_debra_plus>();
}
TEST(RecordManager, MatrixHp) { exercise_scheme<reclaim::reclaim_hp>(); }
TEST(RecordManager, MatrixHe) { exercise_scheme<reclaim::reclaim_he>(); }
TEST(RecordManager, MatrixIbr) { exercise_scheme<reclaim::reclaim_ibr>(); }

// ---- scheme swap at the API boundary: six schemes, one manager type -----
//
// The compile-time trait constants and scheme_name are the API the
// structures' if-constexpr paths key on; pin them per scheme so a trait
// regression cannot slip in behind the templates.

template <class Scheme>
class ManagerTyped : public ::testing::Test {};
using SixSchemes =
    ::testing::Types<reclaim::reclaim_none, reclaim::reclaim_debra,
                     reclaim::reclaim_debra_plus, reclaim::reclaim_hp,
                     reclaim::reclaim_he, reclaim::reclaim_ibr>;
TYPED_TEST_SUITE(ManagerTyped, SixSchemes);

struct trait_row {
    const char* name;
    bool crash_recovery;
    bool fault_tolerant;
    bool quiescence;
    bool per_access;
};
constexpr trait_row expected_traits[] = {
    {"none", false, true, false, false},
    {"debra", false, false, true, false},
    {"debra+", true, true, true, false},
    {"hp", false, true, false, true},
    {"he", false, true, false, true},
    {"ibr-2ge", false, true, true, true},
};

TYPED_TEST(ManagerTyped, SchemeNameAndTraitsMatchTable) {
    using mgr_t = record_manager<TypeParam, alloc_malloc, pool_shared,
                                 small_rec, big_rec>;
    static_assert(std::is_same_v<typename mgr_t::scheme, TypeParam>);
    bool found = false;
    for (const trait_row& row : expected_traits) {
        if (std::string_view(row.name) != mgr_t::scheme_name) continue;
        found = true;
        EXPECT_EQ(mgr_t::supports_crash_recovery, row.crash_recovery);
        EXPECT_EQ(mgr_t::is_fault_tolerant, row.fault_tolerant);
        EXPECT_EQ(mgr_t::quiescence_based, row.quiescence);
        EXPECT_EQ(mgr_t::per_access_protection, row.per_access);
    }
    EXPECT_TRUE(found) << "scheme " << mgr_t::scheme_name
                       << " missing from the trait table";
}

TYPED_TEST(ManagerTyped, LifecycleAndLimboAccounting) {
    using mgr_t = record_manager<TypeParam, alloc_malloc, pool_shared,
                                 small_rec, big_rec>;
    mgr_t mgr(2);
    mgr.init_thread(0);
    mgr.leave_qstate(0);
    auto* a = mgr.template new_record<small_rec>(0);
    a->v = 5;
    auto* b = mgr.template new_record<big_rec>(0);
    b->payload[0] = 6;
    EXPECT_EQ(a->v, 5);
    EXPECT_EQ(b->payload[0], 6);
    if constexpr (std::string_view(TypeParam::name) != "none") {
        mgr.template retire<small_rec>(0, a);
        mgr.enter_qstate(0);
        EXPECT_EQ(mgr.template total_limbo_size<small_rec>(), 1);
        EXPECT_EQ(mgr.total_limbo_all_types(), 1);
    } else {
        mgr.enter_qstate(0);
        // 'none' would leak the retire; hand the record straight back.
        mgr.template deallocate<small_rec>(0, a);
    }
    mgr.template deallocate<big_rec>(0, b);
    mgr.deinit_thread(0);
}

// A thread that deregisters mid-operation must not leave a record pinned:
// each per-access scheme's deinit_thread hook releases its protections, and
// the manager calls that hook only when the scheme defines it.
TYPED_TEST(ManagerTyped, DeinitReleasesPerAccessProtections) {
    using mgr_t =
        record_manager<TypeParam, alloc_malloc, pool_shared, small_rec>;
    if constexpr (!mgr_t::per_access_protection) {
        GTEST_SKIP() << "epoch protection keeps no per-record state";
    } else {
        mgr_t mgr(1);
        mgr.init_thread(0);
        auto* r = mgr.template new_record<small_rec>(0);
        mgr.leave_qstate(0);
        ASSERT_TRUE(mgr.protect(0, r));
        EXPECT_TRUE(mgr.is_protected(0, r));
        mgr.deinit_thread(0);
        EXPECT_FALSE(mgr.is_protected(0, r));
        mgr.init_thread(0);
        mgr.template deallocate<small_rec>(0, r);
        mgr.deinit_thread(0);
    }
}

// ---- multi-type bundles ---------------------------------------------------

using mgr2 = record_manager<reclaim::reclaim_debra, alloc_malloc, pool_shared,
                            small_rec, big_rec>;

TEST(RecordManager, TypesHaveIndependentPools) {
    reclaim::epoch_config cfg;
    cfg.check_thresh = 1;
    cfg.incr_thresh = 1;
    mgr2 mgr(1, cfg);
    mgr.init_thread(0);
    std::set<void*> small_storage;
    std::vector<small_rec*> batch;
    for (int i = 0; i < mgr2::BLOCK_SIZE; ++i) {
        auto* s = mgr.new_record<small_rec>(0);
        small_storage.insert(s);
        batch.push_back(s);
    }
    mgr.leave_qstate(0);
    for (auto* s : batch) mgr.retire<small_rec>(0, s);
    mgr.enter_qstate(0);
    for (int i = 0; i < 10; ++i) {
        mgr.leave_qstate(0);
        mgr.enter_qstate(0);
    }
    // big_rec allocations must never be served from small_rec storage.
    for (int i = 0; i < 64; ++i) {
        auto* b = mgr.new_record<big_rec>(0);
        EXPECT_FALSE(small_storage.count(b));
        mgr.deallocate<big_rec>(0, b);
    }
    mgr.deinit_thread(0);
}

TEST(RecordManager, LimboSizePerType) {
    mgr2 mgr(1);
    mgr.init_thread(0);
    mgr.leave_qstate(0);
    mgr.retire<small_rec>(0, mgr.new_record<small_rec>(0));
    mgr.retire<small_rec>(0, mgr.new_record<small_rec>(0));
    mgr.retire<big_rec>(0, mgr.new_record<big_rec>(0));
    mgr.enter_qstate(0);
    EXPECT_EQ(mgr.total_limbo_size<small_rec>(), 2);
    EXPECT_EQ(mgr.total_limbo_size<big_rec>(), 1);
    mgr.deinit_thread(0);
}

TEST(RecordManager, NewRecordPlacementConstructs) {
    struct ctor_rec {
        long a;
        long b;
        ctor_rec() : a(11), b(22) {}
        explicit ctor_rec(long x) : a(x), b(-x) {}
    };
    record_manager<reclaim::reclaim_none, alloc_malloc, pool_shared, ctor_rec>
        mgr(1);
    mgr.init_thread(0);
    auto* d = mgr.new_record<ctor_rec>(0);
    EXPECT_EQ(d->a, 11);
    EXPECT_EQ(d->b, 22);
    auto* e = mgr.new_record<ctor_rec>(0, 7L);
    EXPECT_EQ(e->a, 7);
    EXPECT_EQ(e->b, -7);
    mgr.deallocate<ctor_rec>(0, d);
    mgr.deallocate<ctor_rec>(0, e);
    mgr.deinit_thread(0);
}

TEST(RecordManager, DefaultConfigRespectsSchemeOverride) {
    using ebr_mgr = record_manager<reclaim::reclaim_ebr, alloc_malloc,
                                   pool_shared, small_rec>;
    EXPECT_TRUE(ebr_mgr::default_config().scan_all_per_op);
    using debra_mgr = record_manager<reclaim::reclaim_debra, alloc_malloc,
                                     pool_shared, small_rec>;
    EXPECT_FALSE(debra_mgr::default_config().scan_all_per_op);
}

TEST(RecordManager, TraitsAreCompileTimeConstants) {
    using m = record_manager<reclaim::reclaim_debra_plus, alloc_malloc,
                             pool_shared, small_rec>;
    static_assert(m::supports_crash_recovery);
    static_assert(!record_manager<reclaim::reclaim_debra, alloc_malloc,
                                  pool_shared, small_rec>::supports_crash_recovery);
    static_assert(m::BLOCK_SIZE == 256);
    SUCCEED();
}

TEST(RecordManager, ClearProtectionsIsNoopForEpochSchemes) {
    mgr2 mgr(1);
    mgr.init_thread(0);
    mgr.leave_qstate(0);
    mgr.clear_protections(0);
    // Quiescence is untouched for epoch schemes.
    EXPECT_FALSE(mgr.is_quiescent(0));
    mgr.enter_qstate(0);
    mgr.deinit_thread(0);
}

TEST(RecordManager, ClearProtectionsClearsHpSlots) {
    record_manager<reclaim::reclaim_hp, alloc_malloc, pool_shared, small_rec>
        mgr(1);
    mgr.init_thread(0);
    auto* r = mgr.new_record<small_rec>(0);
    mgr.protect(0, r);
    EXPECT_TRUE(mgr.is_protected(0, r));
    mgr.clear_protections(0);
    EXPECT_FALSE(mgr.is_protected(0, r));
    mgr.deallocate<small_rec>(0, r);
    mgr.deinit_thread(0);
}

TEST(RecordManager, AllocatorAndPoolAccessors) {
    mgr2 mgr(1);
    mgr.init_thread(0);
    auto* r = mgr.pool<small_rec>().allocate(0);
    EXPECT_NE(r, nullptr);
    mgr.pool<small_rec>().deallocate(0, r);
    mgr.deinit_thread(0);
}

TEST(RecordManager, RotationCoversAllManagedTypes) {
    // When the epoch advances, every type's limbo bags rotate: retire a
    // block of each and verify both get pooled.
    reclaim::epoch_config cfg;
    cfg.check_thresh = 1;
    cfg.incr_thresh = 1;
    mgr2 mgr(1, cfg);
    mgr.init_thread(0);
    std::vector<small_rec*> smalls;
    std::vector<big_rec*> bigs;
    for (int i = 0; i < mgr2::BLOCK_SIZE; ++i) {
        smalls.push_back(mgr.new_record<small_rec>(0));
        bigs.push_back(mgr.new_record<big_rec>(0));
    }
    mgr.leave_qstate(0);
    for (auto* s : smalls) mgr.retire<small_rec>(0, s);
    for (auto* b : bigs) mgr.retire<big_rec>(0, b);
    mgr.enter_qstate(0);
    for (int i = 0; i < 10; ++i) {
        mgr.leave_qstate(0);
        mgr.enter_qstate(0);
    }
    EXPECT_LT(mgr.total_limbo_size<small_rec>(), mgr2::BLOCK_SIZE);
    EXPECT_LT(mgr.total_limbo_size<big_rec>(), mgr2::BLOCK_SIZE);
    mgr.deinit_thread(0);
}

}  // namespace
}  // namespace smr
