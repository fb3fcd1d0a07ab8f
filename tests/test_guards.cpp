// Tests for the RAII guard layer (src/recordmgr/guards.h +
// src/recordmgr/thread_registry.h), typed across all six reclamation
// schemes: guard release on every exit path (scope exit, move,
// early return), zero-cost guarantees for epoch schemes, thread_handle
// registration semantics, deinit idempotency, and the
// guard-outlives-op_guard misuse check.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string_view>
#include <thread>
#include <type_traits>
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

struct rec {
    long payload;
};

using AllSchemes =
    ::testing::Types<reclaim::reclaim_none, reclaim::reclaim_debra,
                     reclaim::reclaim_debra_plus, reclaim::reclaim_hp,
                     reclaim::reclaim_he, reclaim::reclaim_ibr>;

template <class Scheme>
class GuardTyped : public ::testing::Test {
  protected:
    using mgr_t = record_manager<Scheme, alloc_malloc, pool_shared, rec>;
    using guard_t = typename mgr_t::template guard_t<rec>;
};
TYPED_TEST_SUITE(GuardTyped, AllSchemes);

// ---- zero-cost guarantees for epoch schemes --------------------------------

TYPED_TEST(GuardTyped, EpochGuardIsABarePointer) {
    using guard_t = typename TestFixture::guard_t;
    static_assert(!std::is_copy_constructible_v<guard_t>,
                  "guards are move-only in every flavour");
    if constexpr (!TypeParam::per_access_protection) {
        static_assert(std::is_trivially_destructible_v<guard_t>);
        static_assert(sizeof(guard_t) == sizeof(rec*));
    } else {
        static_assert(!std::is_trivially_destructible_v<guard_t>,
                      "hazard guards must release on destruction");
    }
    SUCCEED();
}

// ---- guard release on every exit path --------------------------------------

TYPED_TEST(GuardTyped, GuardReleasesOnScopeExit) {
    typename TestFixture::mgr_t mgr(2);
    auto handle = mgr.register_thread();
    auto acc = mgr.access(handle);
    const int tid = handle.tid();
    rec* r = acc.template new_record<rec>();
    {
        auto op = acc.op();
        {
            auto g = acc.protect(r);
            ASSERT_TRUE(static_cast<bool>(g));
            EXPECT_EQ(g.get(), r);
            if constexpr (TypeParam::per_access_protection) {
                EXPECT_EQ(mgr.live_guard_count(tid), 1);
                EXPECT_TRUE(mgr.is_protected(tid, r));
            }
        }
        EXPECT_EQ(mgr.live_guard_count(tid), 0);
        if constexpr (std::string_view(TypeParam::name) == "hp") {
            // HP tracks protection per pointer; the slot must be free now.
            EXPECT_FALSE(mgr.is_protected(tid, r));
        }
    }
    acc.deallocate(r);
}

TYPED_TEST(GuardTyped, GuardTransfersOnMoveWithoutDoubleRelease) {
    typename TestFixture::mgr_t mgr(2);
    auto handle = mgr.register_thread();
    auto acc = mgr.access(handle);
    const int tid = handle.tid();
    rec* r = acc.template new_record<rec>();
    {
        auto op = acc.op();
        auto g1 = acc.protect(r);
        auto g2 = std::move(g1);
        EXPECT_FALSE(static_cast<bool>(g1));
        EXPECT_EQ(g2.get(), r);
        if constexpr (TypeParam::per_access_protection) {
            EXPECT_EQ(mgr.live_guard_count(tid), 1);  // exactly one claim
        }
        typename TestFixture::guard_t g3;
        g3 = std::move(g2);
        if constexpr (TypeParam::per_access_protection) {
            EXPECT_EQ(mgr.live_guard_count(tid), 1);
        }
        g3.reset();
        EXPECT_EQ(mgr.live_guard_count(tid), 0);
    }
    acc.deallocate(r);
}

TYPED_TEST(GuardTyped, GuardReleasesOnEarlyReturn) {
    typename TestFixture::mgr_t mgr(2);
    auto handle = mgr.register_thread();
    auto acc = mgr.access(handle);
    const int tid = handle.tid();
    rec* r = acc.template new_record<rec>();
    auto traverse_and_bail = [&](bool bail) {
        auto g = acc.protect(r);
        if (bail) return false;  // early return: g must still release
        return true;
    };
    {
        auto op = acc.op();
        EXPECT_FALSE(traverse_and_bail(true));
        EXPECT_EQ(mgr.live_guard_count(tid), 0);
        EXPECT_TRUE(traverse_and_bail(false));
        EXPECT_EQ(mgr.live_guard_count(tid), 0);
    }
    acc.deallocate(r);
}

TYPED_TEST(GuardTyped, ReassignmentReleasesThePreviousProtection) {
    typename TestFixture::mgr_t mgr(2);
    auto handle = mgr.register_thread();
    auto acc = mgr.access(handle);
    const int tid = handle.tid();
    rec* a = acc.template new_record<rec>();
    rec* b = acc.template new_record<rec>();
    {
        auto op = acc.op();
        auto g = acc.protect(a);
        g = acc.protect(b);  // hand-over-hand: a's claim must be dropped
        if constexpr (TypeParam::per_access_protection) {
            EXPECT_EQ(mgr.live_guard_count(tid), 1);
        }
        EXPECT_EQ(g.get(), b);
        if constexpr (std::string_view(TypeParam::name) == "hp") {
            EXPECT_FALSE(mgr.is_protected(tid, a));
            EXPECT_TRUE(mgr.is_protected(tid, b));
        }
    }
    acc.deallocate(a);
    acc.deallocate(b);
}

TYPED_TEST(GuardTyped, FailedValidationYieldsEmptyGuard) {
    typename TestFixture::mgr_t mgr(2);
    auto handle = mgr.register_thread();
    auto acc = mgr.access(handle);
    const int tid = handle.tid();
    rec* r = acc.template new_record<rec>();
    {
        auto op = acc.op();
        auto g = acc.protect(r, [] { return false; });
        if constexpr (std::string_view(TypeParam::name) == "hp") {
            // HP validates on every announce: rejection means no protection
            // may linger.
            EXPECT_FALSE(static_cast<bool>(g));
            EXPECT_EQ(mgr.live_guard_count(tid), 0);
        } else if constexpr (TypeParam::per_access_protection) {
            // HE/IBR only validate when they publish a new era; their
            // alias/fast paths may succeed without consulting the
            // predicate. Either way the guard and the claim count agree.
            EXPECT_EQ(static_cast<bool>(g),
                      mgr.live_guard_count(tid) == 1);
        } else {
            // Epoch schemes never run validation; the epoch covers r.
            EXPECT_TRUE(static_cast<bool>(g));
        }
    }
    acc.deallocate(r);
}

// ---- op_guard semantics -----------------------------------------------------

// ---- guard_span: bulk protection ------------------------------------------

TYPED_TEST(GuardTyped, EpochSpanIsAnEmptyToken) {
    using span_t = typename TestFixture::mgr_t::span_t;
    static_assert(!std::is_copy_constructible_v<span_t>,
                  "spans are move-only in every flavour");
    if constexpr (!TypeParam::per_access_protection) {
        static_assert(std::is_trivially_destructible_v<span_t>);
        static_assert(std::is_empty_v<span_t>);
    } else {
        static_assert(!std::is_trivially_destructible_v<span_t>,
                      "hazard spans must release on destruction");
    }
    SUCCEED();
}

TYPED_TEST(GuardTyped, SpanReleasesEverythingOnScopeExit) {
    typename TestFixture::mgr_t mgr(2);
    auto handle = mgr.register_thread();
    auto acc = mgr.access(handle);
    const int tid = handle.tid();
    std::vector<rec*> recs;
    for (int i = 0; i < 8; ++i) {
        recs.push_back(acc.template new_record<rec>());
    }
    {
        auto op = acc.op();
        {
            auto span = acc.make_span();
            for (rec* r : recs) ASSERT_TRUE(span.protect(r));
            if constexpr (TypeParam::per_access_protection) {
                EXPECT_EQ(span.size(), recs.size());
                EXPECT_EQ(mgr.live_guard_count(tid),
                          static_cast<int>(recs.size()));
                for (rec* r : recs) EXPECT_TRUE(mgr.is_protected(tid, r));
            } else {
                EXPECT_EQ(span.size(), 0u);  // empty token
            }
        }
        EXPECT_EQ(mgr.live_guard_count(tid), 0);
        if constexpr (std::string_view(TypeParam::name) == "hp") {
            for (rec* r : recs) EXPECT_FALSE(mgr.is_protected(tid, r));
        }
    }
    for (rec* r : recs) acc.deallocate(r);
}

TYPED_TEST(GuardTyped, SpanReleaseDropsOneRecord) {
    constexpr bool per_access = TypeParam::per_access_protection;
    // HP and HE track protection per record; IBR's interval covers all.
    constexpr bool per_record = std::string_view(TypeParam::name) == "hp" ||
                                std::string_view(TypeParam::name) == "he";
    typename TestFixture::mgr_t mgr(2);
    auto handle = mgr.register_thread();
    auto acc = mgr.access(handle);
    const int tid = handle.tid();
    rec* a = acc.template new_record<rec>();
    rec* b = acc.template new_record<rec>();
    rec* c = acc.template new_record<rec>();
    rec outsider{};
    {
        auto op = acc.op();
        auto span = acc.make_span();
        const auto expect_held = [&](int n) {
            EXPECT_EQ(static_cast<int>(span.size()), per_access ? n : 0);
            EXPECT_EQ(mgr.live_guard_count(tid), per_access ? n : 0);
        };
        ASSERT_TRUE(span.protect(a));
        ASSERT_TRUE(span.protect(b));
        ASSERT_TRUE(span.protect(c));
        span.release(b);
        expect_held(2);
        if constexpr (per_record) {
            EXPECT_TRUE(mgr.is_protected(tid, a));
            EXPECT_FALSE(mgr.is_protected(tid, b));
            EXPECT_TRUE(mgr.is_protected(tid, c));
        }
        // b is no longer held and `outsider` never was: both are no-ops.
        span.release(b);
        span.release(&outsider);
        expect_held(2);
        if constexpr (per_record) {
            EXPECT_TRUE(mgr.is_protected(tid, a));
            EXPECT_TRUE(mgr.is_protected(tid, c));
        }
        // reset() releases a and c once each: the count lands on zero.
        span.reset();
        expect_held(0);
        if constexpr (per_record) {
            EXPECT_FALSE(mgr.is_protected(tid, a));
            EXPECT_FALSE(mgr.is_protected(tid, c));
        }
    }
    for (rec* r : {a, b, c}) acc.deallocate(r);
}

TYPED_TEST(GuardTyped, SpanGrowsPastEveryFixedBudget) {
    // 200 distinct records exceed the span's inline record buffer (16),
    // HP's base slot chunk (64 -> the chain grows), and HE's initial
    // entry reservation (128 -> the vector grows). Everything must stay
    // protected until reset, then release completely.
    typename TestFixture::mgr_t mgr(2);
    auto handle = mgr.register_thread();
    auto acc = mgr.access(handle);
    const int tid = handle.tid();
    constexpr int N = 200;
    std::vector<rec*> recs;
    for (int i = 0; i < N; ++i) {
        recs.push_back(acc.template new_record<rec>());
    }
    {
        auto op = acc.op();
        auto span = acc.make_span();
        for (rec* r : recs) ASSERT_TRUE(span.protect(r));
        if constexpr (TypeParam::per_access_protection) {
            EXPECT_EQ(span.size(), static_cast<std::size_t>(N));
            EXPECT_EQ(mgr.live_guard_count(tid), N);
            for (rec* r : recs) EXPECT_TRUE(mgr.is_protected(tid, r));
        }
        span.reset();
        EXPECT_EQ(span.size(), 0u);
        EXPECT_EQ(mgr.live_guard_count(tid), 0);
        if constexpr (std::string_view(TypeParam::name) == "hp") {
            for (rec* r : recs) EXPECT_FALSE(mgr.is_protected(tid, r));
        }
        // The span's storage is reusable after reset.
        ASSERT_TRUE(span.protect(recs[0]));
        if constexpr (TypeParam::per_access_protection) {
            EXPECT_EQ(mgr.live_guard_count(tid), 1);
        }
        span.reset();
    }
    for (rec* r : recs) acc.deallocate(r);
}

TYPED_TEST(GuardTyped, SpanMoveTransfersOwnershipWithoutDoubleRelease) {
    typename TestFixture::mgr_t mgr(2);
    auto handle = mgr.register_thread();
    auto acc = mgr.access(handle);
    const int tid = handle.tid();
    std::vector<rec*> recs;
    for (int i = 0; i < 20; ++i) {
        recs.push_back(acc.template new_record<rec>());
    }
    {
        auto op = acc.op();
        auto s1 = acc.make_span();
        for (rec* r : recs) ASSERT_TRUE(s1.protect(r));
        auto s2 = std::move(s1);
        if constexpr (TypeParam::per_access_protection) {
            EXPECT_EQ(s1.size(), 0u);
            EXPECT_EQ(s2.size(), recs.size());
            EXPECT_EQ(mgr.live_guard_count(tid),
                      static_cast<int>(recs.size()));
        }
        typename TestFixture::mgr_t::span_t s3;
        s3 = std::move(s2);
        if constexpr (TypeParam::per_access_protection) {
            EXPECT_EQ(mgr.live_guard_count(tid),
                      static_cast<int>(recs.size()));
        }
        s3.reset();
        EXPECT_EQ(mgr.live_guard_count(tid), 0);
    }
    for (rec* r : recs) acc.deallocate(r);
}

TYPED_TEST(GuardTyped, SpanFailedValidationAdmitsNothing) {
    typename TestFixture::mgr_t mgr(2);
    auto handle = mgr.register_thread();
    auto acc = mgr.access(handle);
    const int tid = handle.tid();
    rec* r = acc.template new_record<rec>();
    {
        auto op = acc.op();
        auto span = acc.make_span();
        const bool admitted = span.protect(r, [] { return false; });
        if constexpr (std::string_view(TypeParam::name) == "hp") {
            // HP validates on every announce: rejection admits nothing.
            EXPECT_FALSE(admitted);
            EXPECT_EQ(span.size(), 0u);
            EXPECT_EQ(mgr.live_guard_count(tid), 0);
        } else if constexpr (TypeParam::per_access_protection) {
            // HE/IBR only validate when they publish a new era; their
            // alias/fast paths may succeed without consulting the
            // predicate. Either way the span and the claim count agree.
            EXPECT_EQ(admitted, span.size() == 1);
            EXPECT_EQ(mgr.live_guard_count(tid),
                      static_cast<int>(span.size()));
        } else {
            EXPECT_TRUE(admitted);  // epoch schemes never fail validation
        }
    }
    acc.deallocate(r);
}

TYPED_TEST(GuardTyped, OpGuardBracketsQuiescence) {
    typename TestFixture::mgr_t mgr(2);
    auto handle = mgr.register_thread();
    auto acc = mgr.access(handle);
    if constexpr (TypeParam::quiescence_based) {
        EXPECT_TRUE(acc.is_quiescent());
        {
            auto op = acc.op();
            EXPECT_FALSE(acc.is_quiescent());
        }
        EXPECT_TRUE(acc.is_quiescent());
    } else {
        auto op = acc.op();  // still legal; brackets are no-ops or clears
        SUCCEED();
    }
}

TYPED_TEST(GuardTyped, GuardResetLeavesQuiescenceAloneMidOperation) {
    // The satellite fix: releasing protections mid-operation (traversal
    // restart) must not flip the quiescence announcement. IBR is the
    // scheme where the old enter_qstate piggyback did exactly that.
    typename TestFixture::mgr_t mgr(2);
    auto handle = mgr.register_thread();
    auto acc = mgr.access(handle);
    rec* r = acc.template new_record<rec>();
    if constexpr (TypeParam::quiescence_based) {
        auto op = acc.op();
        auto g = acc.protect(r);
        g.reset();
        acc.clear_protections();
        EXPECT_FALSE(acc.is_quiescent())
            << "mid-operation clear flipped the quiescence announcement";
    }
    acc.deallocate(r);
}

// ---- misuse detection -------------------------------------------------------

TYPED_TEST(GuardTyped, LiveGuardCountObservesALeakedGuard) {
    typename TestFixture::mgr_t mgr(2);
    auto handle = mgr.register_thread();
    auto acc = mgr.access(handle);
    const int tid = handle.tid();
    rec* r = acc.template new_record<rec>();
    if constexpr (TypeParam::per_access_protection) {
        auto op = acc.op();
        auto g = acc.protect(r);
        // The misuse op_guard's destructor asserts on in debug builds:
        // a guard still live at operation end.
        EXPECT_EQ(mgr.live_guard_count(tid), 1);
        g.reset();  // put the world right before op ends
        EXPECT_EQ(mgr.live_guard_count(tid), 0);
    }
    acc.deallocate(r);
}

#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST)
using GuardMisuseDeath = GuardTyped<reclaim::reclaim_hp>;
TEST_F(GuardMisuseDeath, GuardOutlivingOpGuardFiresDebugAssert) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    using mgr_t = record_manager<reclaim::reclaim_hp, alloc_malloc,
                                 pool_shared, rec>;
    EXPECT_DEATH(
        {
            mgr_t mgr(1);
            auto handle = mgr.register_thread();
            auto acc = mgr.access(handle);
            rec* r = acc.template new_record<rec>();
            auto op = acc.op();
            auto g = acc.protect(r);
            op.finish();  // guard g still live: debug assert fires
        },
        "outlives");
}
#endif

#if defined(GTEST_HAS_DEATH_TEST)
// An explicit tid outside [0, num_threads) would index past the manager's
// and the scheme's per-thread arrays. It aborts with a diagnostic in every
// build, Release included, through both registration paths.
TEST(RegistrationDeath, TidOutsideTheManagerAborts) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    using mgr_t = record_manager<reclaim::reclaim_debra, alloc_malloc,
                                 pool_shared, rec>;
    EXPECT_DEATH(
        {
            mgr_t mgr(2);
            auto handle = mgr.register_thread(2);
        },
        "thread_handle: tid 2 is outside \\[0, num_threads=2\\)");
    EXPECT_DEATH(
        {
            mgr_t mgr(2);
            auto handle = mgr.register_thread(-1);
        },
        "thread_handle: tid -1 is outside \\[0, num_threads=2\\)");
    EXPECT_DEATH(
        {
            mgr_t mgr(2);
            mgr.init_thread(2);
        },
        "init_thread: tid 2 is outside \\[0, num_threads=2\\)");
}
#endif

// ---- thread_handle / registry ----------------------------------------------

TYPED_TEST(GuardTyped, AutoTidsAreDistinctAndRecycled) {
    typename TestFixture::mgr_t mgr(3);
    auto h0 = mgr.register_thread();
    EXPECT_EQ(h0.tid(), 0);
    {
        auto h1 = mgr.register_thread();
        EXPECT_EQ(h1.tid(), 1);
        auto h2 = mgr.register_thread();
        EXPECT_EQ(h2.tid(), 2);
        EXPECT_TRUE(mgr.registry().in_use(1));
    }
    // h1/h2 released: their tids are claimable again.
    EXPECT_FALSE(mgr.registry().in_use(1));
    auto h1b = mgr.register_thread();
    EXPECT_EQ(h1b.tid(), 1);
}

TYPED_TEST(GuardTyped, ExplicitTidRegistration) {
    typename TestFixture::mgr_t mgr(4);
    auto h2 = mgr.register_thread(2);
    EXPECT_EQ(h2.tid(), 2);
    EXPECT_TRUE(mgr.is_thread_registered(2));
    // Auto assignment skips the explicitly held slot's neighbours in order.
    auto h0 = mgr.register_thread();
    EXPECT_EQ(h0.tid(), 0);
    h2.reset();
    EXPECT_FALSE(mgr.is_thread_registered(2));
    EXPECT_FALSE(mgr.registry().in_use(2));
}

TYPED_TEST(GuardTyped, HandleMoveTransfersOwnership) {
    typename TestFixture::mgr_t mgr(2);
    auto h = mgr.register_thread();
    auto h2 = std::move(h);
    EXPECT_FALSE(h.engaged());
    EXPECT_TRUE(h2.engaged());
    EXPECT_EQ(h2.tid(), 0);
    h2.reset();
    EXPECT_FALSE(mgr.is_thread_registered(0));
    h2.reset();  // double reset is a no-op
}

TYPED_TEST(GuardTyped, DeinitThreadIsIdempotent) {
    typename TestFixture::mgr_t mgr(2);
    mgr.init_thread(0);
    EXPECT_TRUE(mgr.is_thread_registered(0));
    mgr.deinit_thread(0);
    EXPECT_FALSE(mgr.is_thread_registered(0));
    // The seed silently corrupted DEBRA+'s target set here; now a no-op.
    mgr.deinit_thread(0);
    EXPECT_FALSE(mgr.is_thread_registered(0));
    // Re-registration after deinit works (trial reuse pattern).
    mgr.init_thread(0);
    EXPECT_TRUE(mgr.is_thread_registered(0));
    mgr.deinit_thread(0);
}

TYPED_TEST(GuardTyped, HandlesRegisterConcurrently) {
    // Tids are distinct among concurrently live handles (a released tid is
    // deliberately reusable), so hold every handle across a barrier.
    typename TestFixture::mgr_t mgr(8);
    std::atomic<int> sum{0};
    std::atomic<int> registered{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < 8; ++i) {
        threads.emplace_back([&] {
            auto handle = mgr.register_thread();
            sum.fetch_add(handle.tid());
            registered.fetch_add(1);
            while (registered.load() < 8) std::this_thread::yield();
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(sum.load(), 0 + 1 + 2 + 3 + 4 + 5 + 6 + 7);
    for (int t = 0; t < 8; ++t) EXPECT_FALSE(mgr.registry().in_use(t));
}

// ---- full vocabulary through the accessor -----------------------------------

TYPED_TEST(GuardTyped, AccessorLifecycleRoundTrip) {
    if (testutil::kLeakChecked &&
        std::string_view(TypeParam::name) == "none") {
        GTEST_SKIP() << "'none' leaks retired records by design";
    }
    typename TestFixture::mgr_t mgr(2);
    auto handle = mgr.register_thread();
    auto acc = mgr.access(handle);
    rec* r = acc.template new_record<rec>(/*payload=*/7L);
    EXPECT_EQ(r->payload, 7);
    {
        auto op = acc.op();
        auto g = acc.protect(r);
        EXPECT_EQ(g->payload, 7);
    }
    acc.retire(r);
    EXPECT_GE(mgr.stats().total(stat::records_retired), 1u);
}

TYPED_TEST(GuardTyped, RunGuardedBracketsAndRecovers) {
    typename TestFixture::mgr_t mgr(2);
    auto handle = mgr.register_thread();
    auto acc = mgr.access(handle);
    int runs = 0;
    acc.run_guarded(
        [&] {
            if constexpr (TypeParam::quiescence_based) {
                EXPECT_FALSE(acc.is_quiescent());
            }
            return ++runs >= 2;  // first attempt retries
        },
        [] { return false; });
    EXPECT_EQ(runs, 2);
    if constexpr (TypeParam::quiescence_based) {
        EXPECT_TRUE(acc.is_quiescent());
    }
}

}  // namespace
}  // namespace smr
