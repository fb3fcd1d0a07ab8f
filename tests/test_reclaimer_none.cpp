// Tests for the None / immediate baselines (src/reclaim/reclaimer_none.h)
// through the record manager.
#include <gtest/gtest.h>

#include "recordmgr/record_manager.h"
#include "reclaim/reclaimer_none.h"

namespace smr {
namespace {

struct rec {
    long v;
};

using mgr_none =
    record_manager<reclaim::reclaim_none, alloc_malloc, pool_shared, rec>;
using mgr_imm = record_manager<reclaim::reclaim_immediate, alloc_malloc,
                               pool_shared, rec>;

TEST(ReclaimNone, Traits) {
    EXPECT_STREQ(mgr_none::scheme_name, "none");
    EXPECT_FALSE(mgr_none::supports_crash_recovery);
    EXPECT_TRUE(mgr_none::is_fault_tolerant);
    EXPECT_FALSE(mgr_none::quiescence_based);
    EXPECT_FALSE(mgr_none::per_access_protection);
}

TEST(ReclaimNone, RetireLeaksByDesign) {
    mgr_none mgr(1);
    mgr.init_thread(0);
    rec* r = mgr.new_record<rec>(0);
    r->v = 42;
    mgr.leave_qstate(0);
    mgr.retire<rec>(0, r);
    mgr.enter_qstate(0);
    // The record is *never* freed or reused: its contents stay intact.
    for (int i = 0; i < 100; ++i) {
        mgr.leave_qstate(0);
        mgr.enter_qstate(0);
        rec* fresh = mgr.new_record<rec>(0);
        EXPECT_NE(fresh, r);
        mgr.deallocate<rec>(0, fresh);
    }
    EXPECT_EQ(r->v, 42);
    EXPECT_EQ(mgr.stats().total(stat::records_pooled), 0u);
    mgr.deallocate<rec>(0, r);  // test cleanup: reclaim the leak manually
    mgr.deinit_thread(0);
}

TEST(ReclaimNone, ProtectAlwaysSucceeds) {
    mgr_none mgr(1);
    mgr.init_thread(0);
    rec* r = mgr.new_record<rec>(0);
    EXPECT_TRUE(mgr.protect(0, r));
    EXPECT_TRUE(mgr.protect(0, r, [] { return false; }));  // validation unused
    EXPECT_TRUE(mgr.is_protected(0, r));
    mgr.unprotect(0, r);
    mgr.deallocate<rec>(0, r);
    mgr.deinit_thread(0);
}

TEST(ReclaimNone, RunOpIsPlainRetryLoop) {
    mgr_none mgr(1);
    mgr.init_thread(0);
    int body_runs = 0;
    int recovery_runs = 0;
    mgr.run_op(
        0,
        [&](int) {
            ++body_runs;
            return body_runs == 3;  // fail twice, succeed third time
        },
        [&](int) {
            ++recovery_runs;
            return true;
        });
    EXPECT_EQ(body_runs, 3);
    EXPECT_EQ(recovery_runs, 0);  // no crash recovery for this scheme
    mgr.deinit_thread(0);
}

TEST(ReclaimImmediate, RetireFreesInstantly) {
    mgr_imm mgr(1);
    mgr.init_thread(0);
    rec* r = mgr.new_record<rec>(0);
    mgr.leave_qstate(0);
    mgr.retire<rec>(0, r);
    mgr.enter_qstate(0);
    EXPECT_EQ(mgr.stats().total(stat::records_pooled), 1u);
    // The very next allocation reuses the storage (single-threaded).
    rec* again = mgr.new_record<rec>(0);
    EXPECT_EQ(again, r);
    mgr.deallocate<rec>(0, again);
    mgr.deinit_thread(0);
}

TEST(ReclaimImmediate, LimboAlwaysEmpty) {
    mgr_imm mgr(1);
    mgr.init_thread(0);
    for (int i = 0; i < 10; ++i) {
        rec* r = mgr.new_record<rec>(0);
        mgr.retire<rec>(0, r);
    }
    EXPECT_EQ(mgr.total_limbo_size<rec>(), 0);
    mgr.deinit_thread(0);
}

}  // namespace
}  // namespace smr
