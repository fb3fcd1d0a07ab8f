// Tests for the era-based reclamation subsystem (src/reclaim/era/):
// the era clock, the era_record stamping plumbing through record_manager,
// Hazard Eras slot/alias semantics, and 2GE-IBR interval reservations --
// plus the bounded-limbo property both schemes were added for.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <type_traits>
#include <vector>

#include "reclaim/era/reclaimer_he.h"
#include "reclaim/era/reclaimer_ibr.h"
#include "reclaim/reclaimer_hp.h"
#include "recordmgr/record_manager.h"

namespace smr {
namespace {

struct rec {
    long v;
};

using mgr_he =
    record_manager<reclaim::reclaim_he, alloc_malloc, pool_shared, rec>;
using mgr_ibr =
    record_manager<reclaim::reclaim_ibr, alloc_malloc, pool_shared, rec>;

template <class Mgr>
typename Mgr::config_t tight_config() {
    typename Mgr::config_t cfg;
    cfg.era_freq = 1;          // every retire advances the era
    cfg.scan_slack_records = 8;  // scans fire quickly
    return cfg;
}

// ---- traits ---------------------------------------------------------------

// HP, HE and IBR share one retire-triggered scan bag; only the Global
// (snapshot, keep test, scan counter) differs.
template <class Scheme>
constexpr bool uses_scan_bag = std::is_same_v<
    typename Scheme::template per_type<rec, void, 4>,
    reclaim::scan_bag<rec, void, 4, typename Scheme::global_state>>;
static_assert(uses_scan_bag<reclaim::reclaim_hp> &&
              uses_scan_bag<reclaim::reclaim_he> &&
              uses_scan_bag<reclaim::reclaim_ibr>);

TEST(ReclaimEra, TraitsHe) {
    EXPECT_STREQ(mgr_he::scheme_name, "he");
    EXPECT_FALSE(mgr_he::supports_crash_recovery);
    EXPECT_TRUE(mgr_he::is_fault_tolerant);
    EXPECT_FALSE(mgr_he::quiescence_based);
    EXPECT_TRUE(mgr_he::per_access_protection);
}

TEST(ReclaimEra, TraitsIbr) {
    EXPECT_STREQ(mgr_ibr::scheme_name, "ibr-2ge");
    EXPECT_FALSE(mgr_ibr::supports_crash_recovery);
    EXPECT_TRUE(mgr_ibr::is_fault_tolerant);
    EXPECT_TRUE(mgr_ibr::quiescence_based);
    EXPECT_TRUE(mgr_ibr::per_access_protection);
}

// ---- era clock + stamping -------------------------------------------------

TEST(ReclaimEra, ClockAdvancesEveryEraFreqRetires) {
    reclaim::ibr_config cfg;
    cfg.era_freq = 4;
    mgr_ibr mgr(1, cfg);
    mgr.init_thread(0);
    const std::uint64_t before = mgr.global().clock().current();
    for (int i = 0; i < 8; ++i) {
        mgr.retire<rec>(0, mgr.new_record<rec>(0));
    }
    EXPECT_EQ(mgr.global().clock().current(), before + 2);
    EXPECT_EQ(mgr.stats().total(stat::epochs_advanced), 2u);
    mgr.deinit_thread(0);
}

TEST(ReclaimEra, RecordsCarryLifetimeIntervals) {
    mgr_he mgr(1, tight_config<mgr_he>());
    mgr.init_thread(0);
    rec* a = mgr.new_record<rec>(0);
    auto* hdr = reclaim::era_record<rec>::from_value(a);
    EXPECT_EQ(hdr->value_ptr(), a);
    const std::uint64_t birth = hdr->birth_era;
    EXPECT_GE(birth, 1u);
    EXPECT_EQ(hdr->retire_era, reclaim::ERA_NONE);
    // Retiring another record first advances the clock (era_freq = 1), so
    // this record's interval is non-degenerate.
    mgr.retire<rec>(0, mgr.new_record<rec>(0));
    mgr.retire<rec>(0, a);
    EXPECT_EQ(hdr->birth_era, birth);
    EXPECT_GT(hdr->retire_era, birth);
    mgr.deinit_thread(0);
}

// ---- Hazard Eras protect/unprotect ---------------------------------------

TEST(ReclaimEra, HeProtectRunsValidationOnPublish) {
    mgr_he mgr(1);
    mgr.init_thread(0);
    rec* r = mgr.new_record<rec>(0);
    bool validated = false;
    EXPECT_TRUE(mgr.protect(0, r, [&] {
        validated = true;
        return true;
    }));
    EXPECT_TRUE(validated);  // first protect of the era publishes a slot
    EXPECT_TRUE(mgr.is_protected(0, r));
    mgr.unprotect(0, r);
    EXPECT_FALSE(mgr.is_protected(0, r));
    mgr.deallocate<rec>(0, r);
    mgr.deinit_thread(0);
}

TEST(ReclaimEra, HeFailedValidationLeavesNothingProtected) {
    mgr_he mgr(1);
    mgr.init_thread(0);
    rec* r = mgr.new_record<rec>(0);
    EXPECT_FALSE(mgr.protect(0, r, [] { return false; }));
    EXPECT_FALSE(mgr.is_protected(0, r));
    EXPECT_EQ(mgr.stats().total(stat::hp_validation_failures), 1u);
    mgr.deallocate<rec>(0, r);
    mgr.deinit_thread(0);
}

TEST(ReclaimEra, HeSameEraProtectsAliasOneSlot) {
    // Protects under an unchanged era share the published reservation:
    // the second protect must not run validation (store-free path).
    mgr_he mgr(1);
    mgr.init_thread(0);
    rec* a = mgr.new_record<rec>(0);
    rec* b = mgr.new_record<rec>(0);
    EXPECT_TRUE(mgr.protect(0, a));
    int validations = 0;
    EXPECT_TRUE(mgr.protect(0, b, [&] {
        ++validations;
        return true;
    }));
    EXPECT_EQ(validations, 0);
    EXPECT_TRUE(mgr.is_protected(0, a));
    EXPECT_TRUE(mgr.is_protected(0, b));
    // Releasing one aliased pointer must not unprotect the other.
    mgr.unprotect(0, b);
    EXPECT_FALSE(mgr.is_protected(0, b));
    EXPECT_TRUE(mgr.is_protected(0, a));
    mgr.enter_qstate(0);
    mgr.deallocate<rec>(0, a);
    mgr.deallocate<rec>(0, b);
    mgr.deinit_thread(0);
}

TEST(ReclaimEra, HeNestedProtectsPairWithUnprotects) {
    mgr_he mgr(1);
    mgr.init_thread(0);
    rec* r = mgr.new_record<rec>(0);
    EXPECT_TRUE(mgr.protect(0, r));
    EXPECT_TRUE(mgr.protect(0, r));  // second claim on the same pointer
    mgr.unprotect(0, r);
    EXPECT_TRUE(mgr.is_protected(0, r));  // one claim still held
    mgr.unprotect(0, r);
    EXPECT_FALSE(mgr.is_protected(0, r));
    mgr.deallocate<rec>(0, r);
    mgr.deinit_thread(0);
}

TEST(ReclaimEra, HeEnterQstateClearsAllReservations) {
    mgr_he mgr(1);
    mgr.init_thread(0);
    rec* a = mgr.new_record<rec>(0);
    rec* b = mgr.new_record<rec>(0);
    mgr.protect(0, a);
    mgr.protect(0, b);
    mgr.enter_qstate(0);
    EXPECT_FALSE(mgr.is_protected(0, a));
    EXPECT_FALSE(mgr.is_protected(0, b));
    mgr.deallocate<rec>(0, a);
    mgr.deallocate<rec>(0, b);
    mgr.deinit_thread(0);
}

// ---- scan behaviour -------------------------------------------------------

TEST(ReclaimEra, HeScanFreesUncoveredKeepsCovered) {
    mgr_he mgr(1, tight_config<mgr_he>());
    mgr.init_thread(0);
    rec* pinned = mgr.new_record<rec>(0);
    pinned->v = 777;
    mgr.protect(0, pinned);
    mgr.retire<rec>(0, pinned);  // retired but era-covered
    const long long threshold = mgr.global().scan_threshold_records();
    for (long long i = 0; i < threshold + mgr_he::BLOCK_SIZE; ++i) {
        rec* r = mgr.new_record<rec>(0);
        r->v = 1;
        mgr.retire<rec>(0, r);
    }
    EXPECT_GT(mgr.stats().total(stat::era_scans), 0u);
    EXPECT_GT(mgr.stats().total(stat::records_pooled), 0u);
    // The covered record survived every scan with its contents intact.
    EXPECT_EQ(pinned->v, 777);
    // Drain the pool; pinned must never be handed out.
    for (int i = 0; i < 3 * mgr_he::BLOCK_SIZE; ++i) {
        rec* r = mgr.allocate<rec>(0);
        EXPECT_NE(r, pinned);
        mgr.deallocate<rec>(0, r);
    }
    mgr.unprotect(0, pinned);
    mgr.deinit_thread(0);
}

TEST(ReclaimEra, IbrScanFreesOutsideIntervalKeepsInside) {
    mgr_ibr mgr(2, tight_config<mgr_ibr>());
    mgr.init_thread(0);
    mgr.init_thread(1);
    // Thread 1 opens an operation: its interval anchors at the current era.
    mgr.leave_qstate(1);
    rec* covered = mgr.new_record<rec>(0);
    covered->v = 777;
    mgr.retire<rec>(0, covered);  // interval intersects thread 1's
    // Records born and retired after thread 1's (frozen) upper bound are
    // reclaimable even though thread 1 never quiesces -- the bounded-limbo
    // property DEBRA lacks. Churn several blocks: the scan frees whole
    // blocks, so the bag must outgrow one.
    const long long threshold = mgr.global().scan_threshold_records();
    for (long long i = 0; i < threshold + 4 * mgr_ibr::BLOCK_SIZE; ++i) {
        rec* r = mgr.new_record<rec>(0);
        r->v = 1;
        mgr.retire<rec>(0, r);
    }
    EXPECT_GT(mgr.stats().total(stat::era_scans), 0u);
    EXPECT_GT(mgr.stats().total(stat::records_pooled), 0u);
    EXPECT_EQ(covered->v, 777);
    EXPECT_LE(mgr.total_limbo_size<rec>(),
              threshold + mgr_ibr::BLOCK_SIZE);
    mgr.enter_qstate(1);
    mgr.deinit_thread(1);
    mgr.deinit_thread(0);
}

TEST(ReclaimEra, IbrStalledReaderDoesNotBlockYoungRecords) {
    // The IBR pitch, concurrently: a reader stalls inside an operation
    // while a writer churns records. Limbo must stay bounded (DEBRA's
    // would grow with every retire until the reader quiesces).
    mgr_ibr mgr(2, tight_config<mgr_ibr>());
    std::atomic<bool> reader_in_op{false};
    std::atomic<bool> release_reader{false};

    std::thread reader([&] {
        mgr.init_thread(1);
        mgr.leave_qstate(1);
        reader_in_op.store(true, std::memory_order_release);
        while (!release_reader.load(std::memory_order_acquire)) {
            std::this_thread::yield();
        }
        mgr.enter_qstate(1);
        mgr.deinit_thread(1);
    });

    mgr.init_thread(0);
    while (!reader_in_op.load(std::memory_order_acquire)) {
        std::this_thread::yield();
    }
    const long long threshold = mgr.global().scan_threshold_records();
    for (long long i = 0; i < threshold + 8 * mgr_ibr::BLOCK_SIZE; ++i) {
        rec* r = mgr.new_record<rec>(0);
        mgr.retire<rec>(0, r);
    }
    // Everything except records whose interval straddles the reader's
    // reservation is reclaimed as retired; limbo never exceeds one scan
    // window plus what the reader pins.
    EXPECT_LE(mgr.total_limbo_size<rec>(),
              threshold + mgr_ibr::BLOCK_SIZE);
    release_reader.store(true, std::memory_order_release);
    reader.join();
    mgr.deinit_thread(0);
}

TEST(ReclaimEra, HeCrossThreadReservationHonored) {
    // Thread 1 era-protects a record; thread 0 retires it and churns
    // through several scans. The record must survive until release.
    mgr_he mgr(2, tight_config<mgr_he>());
    std::atomic<rec*> handoff{nullptr};
    std::atomic<bool> protected_flag{false};
    std::atomic<bool> release{false};
    std::atomic<bool> content_ok{true};

    std::thread reader([&] {
        mgr.init_thread(1);
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
        mgr.deinit_thread(1);
    });

    mgr.init_thread(0);
    rec* target = mgr.new_record<rec>(0);
    target->v = 42;
    handoff.store(target, std::memory_order_release);
    while (!protected_flag.load(std::memory_order_acquire)) {
        std::this_thread::yield();
    }
    mgr.retire<rec>(0, target);
    const long long threshold = mgr.global().scan_threshold_records();
    for (long long i = 0; i < 3 * threshold; ++i) {
        rec* r = mgr.new_record<rec>(0);
        r->v = 0;
        mgr.retire<rec>(0, r);
    }
    EXPECT_GE(mgr.stats().total(stat::era_scans), 2u);
    release.store(true, std::memory_order_release);
    reader.join();
    EXPECT_TRUE(content_ok.load());
    mgr.deinit_thread(0);
}

// ---- IBR quiescence semantics --------------------------------------------

TEST(ReclaimEra, IbrQuiescenceTogglesReservation) {
    mgr_ibr mgr(1);
    mgr.init_thread(0);
    EXPECT_TRUE(mgr.is_quiescent(0));
    mgr.leave_qstate(0);
    EXPECT_FALSE(mgr.is_quiescent(0));
    mgr.enter_qstate(0);
    EXPECT_TRUE(mgr.is_quiescent(0));
    mgr.deinit_thread(0);
}

TEST(ReclaimEra, IbrTraversalRestartKeepsReservationPublished) {
    // clear_protections (a traversal restart) must NOT retract the
    // interval: the reservation is the operation's protection and stays
    // published until enter_qstate. (The old behaviour -- piggybacking on
    // enter_qstate -- flipped the quiescence announcement mid-operation
    // and momentarily un-reserved records the restarting traversal could
    // still reach.)
    mgr_ibr mgr(1);
    mgr.init_thread(0);
    mgr.leave_qstate(0);
    EXPECT_FALSE(mgr.is_quiescent(0));
    mgr.clear_protections(0);  // dedicated clear path: quiescence untouched
    EXPECT_FALSE(mgr.is_quiescent(0));
    rec* r = mgr.new_record<rec>(0);
    EXPECT_TRUE(mgr.protect(0, r));
    EXPECT_FALSE(mgr.is_quiescent(0));
    mgr.enter_qstate(0);
    EXPECT_TRUE(mgr.is_quiescent(0));
    mgr.deallocate<rec>(0, r);
    mgr.deinit_thread(0);
}

TEST(ReclaimEra, IbrCommonPathProtectSkipsValidation) {
    mgr_ibr mgr(1);
    mgr.init_thread(0);
    mgr.leave_qstate(0);  // reserve [e, e]: upper already current
    rec* r = mgr.new_record<rec>(0);
    int validations = 0;
    EXPECT_TRUE(mgr.protect(0, r, [&] {
        ++validations;
        return true;
    }));
    EXPECT_EQ(validations, 0);
    mgr.enter_qstate(0);
    mgr.deallocate<rec>(0, r);
    mgr.deinit_thread(0);
}

// ---- teardown drains limbo ------------------------------------------------

TEST(ReclaimEra, TeardownReleasesLimboRecords) {
    for (int scheme = 0; scheme < 2; ++scheme) {
        auto churn = [](auto& mgr) {
            mgr.init_thread(0);
            for (int i = 0; i < 100; ++i) {
                rec* r = mgr.template new_record<rec>(0);
                mgr.template retire<rec>(0, r);
            }
            mgr.deinit_thread(0);
        };
        if (scheme == 0) {
            mgr_he mgr(1);
            churn(mgr);
        } else {
            mgr_ibr mgr(1);
            churn(mgr);
        }
        // Destructors drain limbo into the pool and the pool into the
        // allocator; ASan would flag any leak or double free here.
    }
    SUCCEED();
}

}  // namespace
}  // namespace smr
