// Tests for the hazard-pointer reclaimer (src/reclaim/reclaimer_hp.h):
// announce/validate semantics, scan-and-free with protection, slot
// lifecycle, and the amortized scan threshold. The slot-row tests read the
// row the way a scanner does (hp_global::snapshot_t, max_hazards(), what a
// scan pools), never through the owner's top/hint view.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "recordmgr/record_manager.h"
#include "reclaim/reclaimer_hp.h"

namespace smr {
namespace {

struct rec {
    long v;
};

using mgr_hp =
    record_manager<reclaim::reclaim_hp, alloc_malloc, pool_shared, rec>;
using hp_snapshot = reclaim::detail::hp_global::snapshot_t;
constexpr int K = reclaim::detail::hp_global::K;

/// Takes every record the scans pooled back out of the pool (allocate
/// hands out pooled records before fresh ones) and returns how many of
/// `wanted` were among them. Single-threaded; the records go back to the
/// pool afterwards.
std::size_t pooled_among(mgr_hp& mgr, const std::vector<rec*>& wanted) {
    std::set<rec*> out;
    const std::uint64_t pooled = mgr.stats().total(stat::records_pooled);
    for (std::uint64_t i = 0; i < pooled; ++i) out.insert(mgr.allocate<rec>(0));
    std::size_t n = 0;
    for (rec* w : wanted) n += out.count(w);
    for (rec* r : out) mgr.deallocate<rec>(0, r);
    return n;
}

/// Retires `recs` on thread 0, then enough fresh records to pass the scan
/// threshold, and returns how many of `recs` the scan pooled. The filler
/// is allocated first, so no retired record is handed out again before
/// the count.
std::size_t retire_and_count_pooled(mgr_hp& mgr,
                                    const std::vector<rec*>& recs) {
    std::vector<rec*> filler;
    for (long long i = 0; i < mgr.global().scan_threshold_records(); ++i)
        filler.push_back(mgr.new_record<rec>(0));
    const std::uint64_t scans = mgr.stats().total(stat::hp_scans);
    for (rec* r : recs) mgr.retire<rec>(0, r);
    for (rec* r : filler) mgr.retire<rec>(0, r);
    EXPECT_GT(mgr.stats().total(stat::hp_scans), scans);
    return pooled_among(mgr, recs);
}

TEST(ReclaimHp, Traits) {
    EXPECT_STREQ(mgr_hp::scheme_name, "hp");
    EXPECT_FALSE(mgr_hp::supports_crash_recovery);
    EXPECT_TRUE(mgr_hp::is_fault_tolerant);
    EXPECT_FALSE(mgr_hp::quiescence_based);
    EXPECT_TRUE(mgr_hp::per_access_protection);
}

TEST(ReclaimHp, ProtectRunsValidation) {
    mgr_hp mgr(1);
    mgr.init_thread(0);
    rec* r = mgr.new_record<rec>(0);
    bool validated = false;
    EXPECT_TRUE(mgr.protect(0, r, [&] {
        validated = true;
        return true;
    }));
    EXPECT_TRUE(validated);
    EXPECT_TRUE(mgr.is_protected(0, r));
    mgr.unprotect(0, r);
    EXPECT_FALSE(mgr.is_protected(0, r));
    mgr.deallocate<rec>(0, r);
    mgr.deinit_thread(0);
}

TEST(ReclaimHp, FailedValidationReleasesSlot) {
    mgr_hp mgr(1);
    mgr.init_thread(0);
    rec* r = mgr.new_record<rec>(0);
    EXPECT_FALSE(mgr.protect(0, r, [] { return false; }));
    EXPECT_FALSE(mgr.is_protected(0, r));
    EXPECT_EQ(mgr.stats().total(stat::hp_validation_failures), 1u);
    mgr.deallocate<rec>(0, r);
    mgr.deinit_thread(0);
}

TEST(ReclaimHp, EnterQstateClearsAllSlots) {
    mgr_hp mgr(1);
    mgr.init_thread(0);
    rec* a = mgr.new_record<rec>(0);
    rec* b = mgr.new_record<rec>(0);
    mgr.protect(0, a);
    mgr.protect(0, b);
    EXPECT_TRUE(mgr.is_protected(0, a));
    EXPECT_TRUE(mgr.is_protected(0, b));
    mgr.enter_qstate(0);
    EXPECT_FALSE(mgr.is_protected(0, a));
    EXPECT_FALSE(mgr.is_protected(0, b));
    hp_snapshot snap;  // a scanner sees every slot empty, not just the owner
    snap.collect(mgr.global());
    EXPECT_FALSE(snap.keeps(a));
    EXPECT_FALSE(snap.keeps(b));
    mgr.deallocate<rec>(0, a);
    mgr.deallocate<rec>(0, b);
    mgr.deinit_thread(0);
}

TEST(ReclaimHp, ScanFreesUnprotectedOnly) {
    mgr_hp mgr(1);
    mgr.init_thread(0);
    // Pin one record, then retire enough to trigger a scan.
    rec* pinned = mgr.new_record<rec>(0);
    pinned->v = 777;
    mgr.protect(0, pinned);
    const long long threshold =
        mgr.global().scan_threshold_records();
    std::vector<rec*> retired;
    mgr.retire<rec>(0, pinned);  // retired but protected
    for (long long i = 0; i < threshold + mgr_hp::BLOCK_SIZE; ++i) {
        rec* r = mgr.new_record<rec>(0);
        r->v = 1;
        mgr.retire<rec>(0, r);
        retired.push_back(r);
    }
    EXPECT_GT(mgr.stats().total(stat::hp_scans), 0u);
    EXPECT_GT(mgr.stats().total(stat::records_pooled), 0u);
    // The protected record survived every scan with its contents intact.
    EXPECT_EQ(pinned->v, 777);
    // Drain the pool; pinned must never be handed out.
    for (int i = 0; i < 3 * mgr_hp::BLOCK_SIZE; ++i) {
        rec* r = mgr.allocate<rec>(0);
        EXPECT_NE(r, pinned);
        mgr.deallocate<rec>(0, r);
    }
    mgr.unprotect(0, pinned);
    mgr.deinit_thread(0);
}

TEST(ReclaimHp, ScanThresholdScalesWithThreads) {
    mgr_hp mgr1(1);
    mgr_hp mgr4(4);
    EXPECT_GT(mgr4.global().scan_threshold_records(),
              mgr1.global().scan_threshold_records());
    // 2nK + slack.
    EXPECT_EQ(mgr1.global().scan_threshold_records(),
              2LL * 1 * K + 512);
}

TEST(ReclaimHp, RetireWithoutPressureDoesNotScan) {
    mgr_hp mgr(1);
    mgr.init_thread(0);
    for (int i = 0; i < 16; ++i) {
        rec* r = mgr.new_record<rec>(0);
        mgr.retire<rec>(0, r);
    }
    EXPECT_EQ(mgr.stats().total(stat::hp_scans), 0u);
    EXPECT_EQ(mgr.total_limbo_size<rec>(), 16);
    mgr.deinit_thread(0);
}

TEST(ReclaimHp, CrossThreadProtectionHonoredDuringScan) {
    // Thread 1 protects a record; thread 0 retires it and scans. The
    // record must survive until thread 1 releases it, and be pooled after.
    // The second round holds it in a chained slot: behind a 2K span, at
    // index 2K of thread 1's row, in a chunk thread 1 appended itself.
    for (const int ahead : {0, 2 * K}) {
        SCOPED_TRACE(ahead);
        mgr_hp mgr(2);
        std::atomic<rec*> handoff{nullptr};
        std::atomic<bool> protected_flag{false};
        std::atomic<bool> release{false};
        std::atomic<bool> content_ok{true};

        std::thread reader([&] {
            mgr.init_thread(1);
            std::vector<rec> held(static_cast<std::size_t>(ahead));
            auto span = accessor<mgr_hp>(mgr, 1).make_span();
            for (rec& h : held) EXPECT_TRUE(span.protect(&h));
            rec* r;
            while ((r = handoff.load(std::memory_order_acquire)) == nullptr) {
                std::this_thread::yield();
            }
            mgr.protect(1, r);
            protected_flag.store(true, std::memory_order_release);
            while (!release.load(std::memory_order_acquire)) {
                if (r->v != 42) {
                    content_ok.store(false);
                    break;
                }
                std::this_thread::yield();
            }
            mgr.unprotect(1, r);
            span.reset();
            mgr.deinit_thread(1);
        });

        mgr.init_thread(0);
        rec* target = mgr.new_record<rec>(0);
        target->v = 42;
        handoff.store(target, std::memory_order_release);
        while (!protected_flag.load(std::memory_order_acquire)) {
            std::this_thread::yield();
        }
        // One chunk per thread, plus the two thread 1 appended for the span.
        EXPECT_EQ(mgr.global().max_hazards(),
                  static_cast<std::size_t>(2 * K + ahead));
        // Retire the target plus enough filler to force several scans.
        // Every record is allocated before the first retire, so none is
        // reused from the pool while the test still tracks it.
        const long long threshold = mgr.global().scan_threshold_records();
        std::vector<rec*> filler;
        for (long long i = 0; i < 5 * threshold; ++i) {
            filler.push_back(mgr.new_record<rec>(0));
            filler.back()->v = 0;
        }
        mgr.retire<rec>(0, target);
        for (long long i = 0; i < 3 * threshold; ++i) {
            mgr.retire<rec>(0, filler[static_cast<std::size_t>(i)]);
        }
        EXPECT_GE(mgr.stats().total(stat::hp_scans), 2u);
        EXPECT_EQ(pooled_among(mgr, {target}), 0u);
        release.store(true, std::memory_order_release);
        reader.join();
        EXPECT_TRUE(content_ok.load());
        // Released: the next scans pool it.
        for (long long i = 3 * threshold; i < 5 * threshold; ++i) {
            mgr.retire<rec>(0, filler[static_cast<std::size_t>(i)]);
        }
        EXPECT_EQ(pooled_among(mgr, {target}), 1u);
        mgr.deinit_thread(0);
    }
}

TEST(ReclaimHp, LeaveQstateIsFree) {
    // HPs have no epochs: leave_qstate does nothing and returns false.
    mgr_hp mgr(1);
    mgr.init_thread(0);
    EXPECT_FALSE(mgr.leave_qstate(0));
    EXPECT_FALSE(mgr.is_quiescent(0));
    mgr.deinit_thread(0);
}

TEST(ReclaimHp, ManySlotsUsableSimultaneously) {
    mgr_hp mgr(1);
    mgr.init_thread(0);
    std::vector<rec*> recs;
    for (int i = 0; i < K; ++i) {
        rec* r = mgr.new_record<rec>(0);
        recs.push_back(r);
        EXPECT_TRUE(mgr.protect(0, r));
    }
    for (rec* r : recs) EXPECT_TRUE(mgr.is_protected(0, r));
    mgr.enter_qstate(0);
    for (rec* r : recs) mgr.deallocate<rec>(0, r);
    mgr.deinit_thread(0);
}

TEST(ReclaimHp, HandOverHandReusesSlotHoles) {
    // ellen_bst::search's step: protect the child, then release the
    // grandparent (window 3: gp, p, l). The window K - 1 variant peaks at
    // exactly K live protections and leaves its hole at every slot of the
    // chunk in turn. Neither may grow the chain: a released slot is
    // reused before a fresh one is taken.
    mgr_hp mgr(2);
    mgr.init_thread(0);
    std::vector<rec*> recs;
    for (int i = 0; i <= K; ++i) recs.push_back(mgr.new_record<rec>(0));
    for (const int window : {3, K - 1}) {
        SCOPED_TRACE(window);
        std::deque<rec*> live;
        for (int step = 0; step < 10000; ++step) {
            rec* child = recs[static_cast<std::size_t>(step % (K + 1))];
            ASSERT_TRUE(mgr.protect(0, child));
            live.push_back(child);
            if (static_cast<int>(live.size()) > window) {
                mgr.unprotect(0, live.front());
                live.pop_front();
            }
        }
        EXPECT_EQ(mgr.global().max_hazards(), static_cast<std::size_t>(2 * K));
        hp_snapshot snap;
        snap.collect(mgr.global());
        for (rec* r : recs) {
            EXPECT_EQ(snap.keeps(r),
                      std::find(live.begin(), live.end(), r) != live.end());
        }
        mgr.enter_qstate(0);
        snap.collect(mgr.global());
        for (rec* r : recs) EXPECT_FALSE(snap.keeps(r));
    }
    for (rec* r : recs) mgr.deallocate<rec>(0, r);
    mgr.deinit_thread(0);
}

TEST(ReclaimHp, SpanReleasedNewestFirstLeavesNoSlotHeld) {
    // A 3K-record span fills three chunks; its newest-first release must
    // empty every one of them, so a scan keeps none of its records.
    mgr_hp mgr(1);
    mgr.init_thread(0);
    std::vector<rec*> recs;
    for (int i = 0; i < 3 * K; ++i) recs.push_back(mgr.new_record<rec>(0));
    {
        auto span = accessor<mgr_hp>(mgr, 0).make_span();
        for (rec* r : recs) ASSERT_TRUE(span.protect(r));
        EXPECT_EQ(mgr.global().max_hazards(), static_cast<std::size_t>(3 * K));
        span.reset();
    }
    mgr.enter_qstate(0);
    hp_snapshot snap;
    snap.collect(mgr.global());
    for (rec* r : recs) EXPECT_FALSE(snap.keeps(r));
    EXPECT_EQ(retire_and_count_pooled(mgr, recs), recs.size());
    mgr.deinit_thread(0);
}

TEST(ReclaimHp, ShuffledReleaseLeavesNoSlotHeld) {
    // 3K raw protections released in random order: after every release a
    // scan keeps exactly the records still held, and after the last one
    // (plus enter_qstate) it keeps none.
    mgr_hp mgr(1);
    mgr.init_thread(0);
    std::vector<rec*> recs;
    for (int i = 0; i < 3 * K; ++i) {
        recs.push_back(mgr.new_record<rec>(0));
        ASSERT_TRUE(mgr.protect(0, recs.back()));
    }
    std::vector<rec*> order = recs;
    std::shuffle(order.begin(), order.end(), std::mt19937(24));
    std::set<rec*> held(recs.begin(), recs.end());
    hp_snapshot snap;
    for (rec* r : order) {
        mgr.unprotect(0, r);
        held.erase(r);
        snap.collect(mgr.global());
        for (rec* x : recs) ASSERT_EQ(snap.keeps(x), held.count(x) == 1);
    }
    mgr.enter_qstate(0);
    EXPECT_EQ(retire_and_count_pooled(mgr, recs), recs.size());
    mgr.deinit_thread(0);
}

TEST(ReclaimHp, DoubleProtectionNeedsTwoUnprotects) {
    mgr_hp mgr(1);
    mgr.init_thread(0);
    rec* r = mgr.new_record<rec>(0);
    ASSERT_TRUE(mgr.protect(0, r));
    ASSERT_TRUE(mgr.protect(0, r));
    hp_snapshot snap;
    mgr.unprotect(0, r);
    snap.collect(mgr.global());
    EXPECT_TRUE(snap.keeps(r));
    mgr.unprotect(0, r);
    snap.collect(mgr.global());
    EXPECT_FALSE(snap.keeps(r));
    mgr.deallocate<rec>(0, r);
    mgr.deinit_thread(0);
}

}  // namespace
}  // namespace smr
