// Tests for the benchmark harness (src/harness/workload.h): prefill,
// timed trials, the size invariant, metric harvesting, and the stalling
// straggler used by the Figure-9 memory experiment.
#include <gtest/gtest.h>

#include <cstdlib>

#include "ds_test_util.h"
#include "harness/workload.h"

namespace smr {
namespace {

using testutil::key_t;
using testutil::val_t;

TEST(Harness, PrefillReachesTarget) {
    using mgr_t = testutil::bst_mgr<reclaim::reclaim_none>;
    mgr_t mgr(1);
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    auto handle = mgr.register_thread();
    const long long size =
        harness::prefill_to(bst, mgr.access(handle), 1000, 500, 42);
    EXPECT_EQ(size, 500);
    EXPECT_EQ(bst.size_slow(), 500);
}

TEST(Harness, TrialRunsAndReportsThroughput) {
    using mgr_t = testutil::bst_mgr<reclaim::reclaim_debra>;
    mgr_t mgr(2, testutil::fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    harness::workload_config cfg;
    cfg.num_threads = 2;
    cfg.key_range = 256;
    cfg.trial_ms = 100;
    const auto res = harness::run_trial(bst, mgr, cfg);
    EXPECT_GT(res.total_ops, 0);
    EXPECT_GT(res.seconds, 0.05);
    EXPECT_GT(res.mops_per_sec(), 0.0);
    EXPECT_EQ(res.prefill_size, 128);
    EXPECT_TRUE(res.size_invariant_holds())
        << "final " << res.final_size << " expected "
        << res.expected_final_size;
    EXPECT_TRUE(bst.validate_structure());
}

TEST(Harness, OperationMixRespected) {
    using mgr_t = testutil::list_mgr<reclaim::reclaim_debra>;
    mgr_t mgr(2, testutil::fast_config<mgr_t>());
    ds::harris_list<key_t, val_t, mgr_t> list(mgr);
    harness::workload_config cfg;
    cfg.num_threads = 2;
    cfg.key_range = 64;
    cfg.trial_ms = 100;
    cfg.insert_pct = 25;
    cfg.delete_pct = 25;
    const auto res = harness::run_trial(list, mgr, cfg);
    const long long updates =
        res.inserts_attempted + res.deletes_attempted;
    EXPECT_GT(res.finds, 0);
    // ~50% searches; allow wide statistical slack.
    EXPECT_GT(res.finds, updates / 2);
    EXPECT_LT(res.finds, updates * 2);
    EXPECT_TRUE(res.size_invariant_holds());
}

TEST(Harness, NoPrefillOption) {
    using mgr_t = testutil::bst_mgr<reclaim::reclaim_none>;
    mgr_t mgr(1);
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    harness::workload_config cfg;
    cfg.num_threads = 1;
    cfg.prefill = false;
    cfg.trial_ms = 50;
    const auto res = harness::run_trial(bst, mgr, cfg);
    EXPECT_EQ(res.prefill_size, 0);
    EXPECT_TRUE(res.size_invariant_holds());
}

TEST(Harness, MetricsHarvested) {
    using mgr_t = testutil::bst_mgr<reclaim::reclaim_debra>;
    mgr_t mgr(2, testutil::fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    harness::workload_config cfg;
    cfg.num_threads = 2;
    cfg.key_range = 64;  // heavy churn on few keys -> retires + reuse
    cfg.trial_ms = 150;
    const auto res = harness::run_trial(bst, mgr, cfg);
    EXPECT_GT(res.counters[stat::records_retired], 0u);
    EXPECT_GT(res.counters[stat::records_allocated], 0u);
    EXPECT_GT(res.counters[stat::epochs_advanced], 0u);
    EXPECT_TRUE(res.size_invariant_holds());
}

TEST(Harness, StallingStragglerUnderDebraPlus) {
    // The Figure-9 scenario: one thread stalls non-quiescently; under
    // DEBRA+ it is neutralized and reclamation continues.
    using mgr_t = testutil::bst_mgr<reclaim::reclaim_debra_plus>;
    mgr_t mgr(3, testutil::fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    harness::workload_config cfg;
    cfg.num_threads = 3;
    cfg.key_range = 64;
    cfg.trial_ms = 300;
    cfg.stall_tid = 2;
    cfg.stall_ms = 20;
    const auto res = harness::run_trial(bst, mgr, cfg);
    EXPECT_TRUE(res.size_invariant_holds());
    EXPECT_GT(res.counters[stat::neutralize_signals_sent], 0u);
    EXPECT_GT(res.counters[stat::records_pooled], 0u);
}

TEST(Harness, StallingStragglerFreezesDebra) {
    using mgr_t = testutil::bst_mgr<reclaim::reclaim_debra>;
    mgr_t mgr(3, testutil::fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    harness::workload_config cfg;
    cfg.num_threads = 3;
    cfg.key_range = 64;
    cfg.trial_ms = 200;
    cfg.stall_tid = 2;
    cfg.stall_ms = 1000;  // stalls essentially the whole trial
    const auto res = harness::run_trial(bst, mgr, cfg);
    EXPECT_TRUE(res.size_invariant_holds());
    // Limbo retains (nearly) everything retired after the stall began.
    EXPECT_GT(res.counters[stat::records_retired], 0u);
    EXPECT_GT(res.limbo_records +
                  static_cast<long long>(res.counters[stat::records_pooled]),
              0);
}

TEST(Harness, EnvIntFallback) {
    ::unsetenv("SMR_TEST_ENV_KNOB");
    EXPECT_EQ(harness::env_int("SMR_TEST_ENV_KNOB", 7), 7);
    ::setenv("SMR_TEST_ENV_KNOB", "123", 1);
    EXPECT_EQ(harness::env_int("SMR_TEST_ENV_KNOB", 7), 123);
    ::unsetenv("SMR_TEST_ENV_KNOB");
}

TEST(Harness, RepeatedTrialsOnSameStructure) {
    using mgr_t = testutil::skip_mgr<reclaim::reclaim_debra>;
    mgr_t mgr(2, testutil::fast_config<mgr_t>());
    ds::lazy_skiplist<key_t, val_t, mgr_t> skip(mgr);
    harness::workload_config cfg;
    cfg.num_threads = 2;
    cfg.key_range = 128;
    cfg.trial_ms = 60;
    cfg.prefill = false;  // second prefill would double-fill
    for (int i = 0; i < 3; ++i) {
        const auto res = harness::run_trial(skip, mgr, cfg);
        // Without prefill the harness baselines on the current size, so
        // the invariant holds per-trial even on a reused structure.
        EXPECT_TRUE(res.size_invariant_holds()) << "trial " << i;
        EXPECT_TRUE(skip.validate_structure());
    }
}

}  // namespace
}  // namespace smr
