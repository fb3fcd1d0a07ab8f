// Tests for DEBRA (src/reclaim/reclaimer_debra.h) and classic EBR through
// the record manager: grace periods, reuse, partial fault tolerance, and
// the non-fault-tolerance the paper motivates DEBRA+ with.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "recordmgr/record_manager.h"
#include "reclaim/reclaimer_debra.h"

namespace smr {
namespace {

struct rec {
    long v;
};

using mgr_debra =
    record_manager<reclaim::reclaim_debra, alloc_malloc, pool_shared, rec>;
using mgr_ebr =
    record_manager<reclaim::reclaim_ebr, alloc_malloc, pool_shared, rec>;

reclaim::epoch_config fast_cfg() {
    reclaim::epoch_config c;
    c.check_thresh = 1;
    c.incr_thresh = 1;
    return c;
}

TEST(ReclaimDebra, Traits) {
    EXPECT_STREQ(mgr_debra::scheme_name, "debra");
    EXPECT_FALSE(mgr_debra::supports_crash_recovery);
    EXPECT_FALSE(mgr_debra::is_fault_tolerant);
    EXPECT_TRUE(mgr_debra::quiescence_based);
    EXPECT_FALSE(mgr_debra::per_access_protection);
}

TEST(ReclaimEbr, DefaultConfigScansAllPerOp) {
    const auto cfg = mgr_ebr::default_config();
    EXPECT_TRUE(cfg.scan_all_per_op);
    EXPECT_EQ(cfg.check_thresh, 1);
    EXPECT_EQ(cfg.incr_thresh, 1);
}

TEST(ReclaimDebra, RetiredRecordsEventuallyReused) {
    mgr_debra mgr(1, fast_cfg());
    mgr.init_thread(0);
    // Retire a full block's worth *within one operation* so the current
    // limbo bag holds a full block when it rotates. (Spreading retires one
    // per op would leave every bag's head block non-full; those records
    // wait for later epochs to top the block up -- see limbo_bags.h.)
    std::set<rec*> retired;
    std::vector<rec*> batch;
    for (int i = 0; i < mgr_debra::BLOCK_SIZE; ++i) {
        batch.push_back(mgr.new_record<rec>(0));
    }
    mgr.leave_qstate(0);
    for (rec* r : batch) {
        mgr.retire<rec>(0, r);
        retired.insert(r);
    }
    mgr.enter_qstate(0);
    // Cycle through enough operations for three epoch advances.
    for (int i = 0; i < 10; ++i) {
        mgr.leave_qstate(0);
        mgr.enter_qstate(0);
    }
    EXPECT_GT(mgr.stats().total(stat::records_pooled), 0u);
    // Allocation now reuses retired storage.
    bool reused = false;
    std::vector<rec*> fresh;
    for (int i = 0; i < mgr_debra::BLOCK_SIZE; ++i) {
        rec* r = mgr.allocate<rec>(0);
        if (retired.count(r)) reused = true;
        fresh.push_back(r);
    }
    EXPECT_TRUE(reused);
    for (rec* r : fresh) mgr.deallocate<rec>(0, r);
    mgr.deinit_thread(0);
}

TEST(ReclaimDebra, GracePeriodDelaysReuse) {
    // A record retired while another thread is non-quiescent must not be
    // reused until that thread quiesces -- the core safety property.
    mgr_debra mgr(2, fast_cfg());
    mgr.init_thread(0);
    // Simulate thread 1 being mid-operation: non-quiescent, stale epoch.
    // (Done via the global state directly; thread 1 never actually runs.)
    mgr.global().leave_qstate(1, [] {});

    std::set<rec*> retired;
    for (int i = 0; i < 2 * mgr_debra::BLOCK_SIZE; ++i) {
        mgr.leave_qstate(0);
        rec* r = mgr.new_record<rec>(0);
        mgr.retire<rec>(0, r);
        retired.insert(r);
        mgr.enter_qstate(0);
    }
    // Despite many operations, nothing may be pooled: thread 1 holds the
    // epoch back.
    EXPECT_EQ(mgr.stats().total(stat::records_pooled), 0u);
    EXPECT_EQ(mgr.total_limbo_size<rec>(),
              static_cast<long long>(retired.size()));
    // Thread 1 quiesces; reclamation resumes.
    mgr.global().enter_qstate(1);
    for (int i = 0; i < 10; ++i) {
        mgr.leave_qstate(0);
        mgr.enter_qstate(0);
    }
    EXPECT_GT(mgr.stats().total(stat::records_pooled), 0u);
    mgr.deinit_thread(0);
}

TEST(ReclaimDebra, QuiescentSleeperDoesNotBlockReclamation) {
    // Partial fault tolerance (paper Section 4): thread 1 "crashes" while
    // quiescent (it simply never runs); thread 0 reclaims as usual.
    mgr_debra mgr(2, fast_cfg());
    mgr.init_thread(0);
    for (int round = 0; round < 8; ++round) {
        std::vector<rec*> batch;
        for (int i = 0; i < mgr_debra::BLOCK_SIZE; ++i) {
            batch.push_back(mgr.new_record<rec>(0));
        }
        mgr.leave_qstate(0);
        for (rec* r : batch) mgr.retire<rec>(0, r);
        mgr.enter_qstate(0);
    }
    EXPECT_GT(mgr.stats().total(stat::records_pooled), 0u);
    mgr.deinit_thread(0);
}

TEST(ReclaimDebra, ProtectCompilesToTrue) {
    mgr_debra mgr(1);
    mgr.init_thread(0);
    rec* r = mgr.new_record<rec>(0);
    bool validate_ran = false;
    EXPECT_TRUE(mgr.protect(0, r, [&] {
        validate_ran = true;
        return false;
    }));
    EXPECT_FALSE(validate_ran);  // epoch schemes never call validate
    EXPECT_TRUE(mgr.is_protected(0, r));
    mgr.deallocate<rec>(0, r);
    mgr.deinit_thread(0);
}

TEST(ReclaimDebra, IsQuiescentTracksBrackets) {
    mgr_debra mgr(1);
    mgr.init_thread(0);
    EXPECT_TRUE(mgr.is_quiescent(0));
    mgr.leave_qstate(0);
    EXPECT_FALSE(mgr.is_quiescent(0));
    mgr.enter_qstate(0);
    EXPECT_TRUE(mgr.is_quiescent(0));
    mgr.deinit_thread(0);
}

// The core safety property under real concurrency: no record is ever
// observed in a "reused" state while a reader still holds it. Readers
// publish the record they are examining; writers retire records and the
// manager recycles them; each record carries a canary the reader checks.
TEST(ReclaimDebra, ConcurrentUseAfterFreeCanary) {
    constexpr int THREADS = 4;
    constexpr long CANARY = 0x5a5a5a5a;
    mgr_debra mgr(THREADS, fast_cfg());
    std::atomic<rec*> shared{nullptr};
    std::atomic<bool> stop{false};
    std::atomic<long> violations{0};

    std::vector<std::thread> workers;
    // Writer: publishes a fresh record, retires the old one. Freshly
    // (re)allocated storage is held in a DIRTY state for a while before
    // the canary is written, so any reader still holding recycled storage
    // observes the dirty value -- a use-after-free detector.
    workers.emplace_back([&] {
        mgr.init_thread(0);
        while (!stop.load(std::memory_order_acquire)) {
            mgr.leave_qstate(0);
            rec* fresh = mgr.new_record<rec>(0);
            fresh->v = 0xdead;
            for (int k = 0; k < 64; ++k) {
                asm volatile("" ::: "memory");
            }
            fresh->v = CANARY;
            rec* old = shared.exchange(fresh, std::memory_order_acq_rel);
            if (old != nullptr) mgr.retire<rec>(0, old);
            mgr.enter_qstate(0);
        }
        mgr.deinit_thread(0);
    });
    for (int t = 1; t < THREADS; ++t) {
        workers.emplace_back([&, t] {
            mgr.init_thread(t);
            while (!stop.load(std::memory_order_acquire)) {
                mgr.leave_qstate(t);
                rec* r = shared.load(std::memory_order_acquire);
                if (r != nullptr) {
                    // Within an epoch-protected section the record must not
                    // have been recycled (a recycler overwrites v below).
                    for (int k = 0; k < 10; ++k) {
                        if (r->v != CANARY) {
                            violations.fetch_add(1);
                            break;
                        }
                    }
                }
                mgr.enter_qstate(t);
            }
            mgr.deinit_thread(t);
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    stop.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    EXPECT_EQ(violations.load(), 0);
    EXPECT_GT(mgr.stats().total(stat::records_pooled), 0u);
    rec* last = shared.load();
    if (last != nullptr) mgr.deallocate<rec>(0, last);
}

TEST(ReclaimEbr, ReclaimsLikeDebra) {
    mgr_ebr mgr(1);
    mgr.init_thread(0);
    for (int round = 0; round < 6; ++round) {
        std::vector<rec*> batch;
        for (int i = 0; i < mgr_ebr::BLOCK_SIZE; ++i) {
            batch.push_back(mgr.new_record<rec>(0));
        }
        mgr.leave_qstate(0);
        for (rec* r : batch) mgr.retire<rec>(0, r);
        mgr.enter_qstate(0);
    }
    for (int i = 0; i < 10; ++i) {
        mgr.leave_qstate(0);
        mgr.enter_qstate(0);
    }
    EXPECT_GT(mgr.stats().total(stat::records_pooled), 0u);
    mgr.deinit_thread(0);
}

TEST(ReclaimEbr, ScansMoreThanDebra) {
    // The ablation behind DEBRA's design: classic EBR reads announcements
    // every operation; DEBRA reads one announcement per CHECK_THRESH ops.
    constexpr int OPS = 1000;
    std::uint64_t ebr_checks, debra_checks;
    {
        mgr_ebr mgr(4);
        mgr.init_thread(0);
        for (int i = 0; i < OPS; ++i) {
            mgr.leave_qstate(0);
            mgr.enter_qstate(0);
        }
        ebr_checks = mgr.stats().total(stat::announcement_checks);
        mgr.deinit_thread(0);
    }
    {
        reclaim::epoch_config cfg;  // defaults: check_thresh = 3
        mgr_debra mgr(4, cfg);
        mgr.init_thread(0);
        for (int i = 0; i < OPS; ++i) {
            mgr.leave_qstate(0);
            mgr.enter_qstate(0);
        }
        debra_checks = mgr.stats().total(stat::announcement_checks);
        mgr.deinit_thread(0);
    }
    EXPECT_GT(ebr_checks, 2 * debra_checks);
}

}  // namespace
}  // namespace smr
