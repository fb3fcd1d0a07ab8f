// Tests for the latency observability layer: the log-scale histogram core
// (src/util/latency_hist.h -- bucket boundary math, merge algebra,
// percentile extraction against a sorted-sample oracle, clock
// calibration), the harness recording layer (src/harness/latency.h --
// sampling gate, per-op-kind histograms), stall attribution in
// debug_stats, and an end-to-end timed trial whose latency_result must be
// populated exactly when sampling is on.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "ds_test_util.h"
#include "harness/latency.h"
#include "harness/workload.h"
#include "obs/event_ring.h"
#include "util/debug_stats.h"
#include "util/latency_hist.h"
#include "util/prng.h"

namespace smr {
namespace {

// ---- bucket layout ---------------------------------------------------------

TEST(LatencyHist, BucketBoundariesAreExact) {
    // Values below 2^LAT_SUB_BITS are bucketed exactly.
    for (std::uint64_t v = 0; v < (1u << LAT_SUB_BITS); ++v) {
        EXPECT_EQ(lat_bucket_of(v), static_cast<int>(v)) << "v=" << v;
        EXPECT_EQ(lat_bucket_lo(static_cast<int>(v)), v);
        EXPECT_EQ(lat_bucket_hi(static_cast<int>(v)), v + 1);
    }
    // Every bucket's [lo, hi) maps back to itself at both edges; buckets
    // tile the value axis with no gaps (each hi is the next lo).
    for (int i = 0; i < LAT_BUCKETS - 1; ++i) {
        const std::uint64_t lo = lat_bucket_lo(i);
        const std::uint64_t hi = lat_bucket_hi(i);
        EXPECT_LT(lo, hi) << "bucket " << i;
        EXPECT_EQ(lat_bucket_of(lo), i) << "bucket " << i;
        EXPECT_EQ(lat_bucket_of(hi - 1), i) << "bucket " << i;
        EXPECT_EQ(lat_bucket_hi(i), lat_bucket_lo(i + 1))
            << "gap after bucket " << i;
    }
    // Relative bucket width stays within the design bound (12.5%) past
    // the exact range.
    for (int i = (1 << LAT_SUB_BITS); i < LAT_BUCKETS - 1; ++i) {
        const double lo = static_cast<double>(lat_bucket_lo(i));
        const double hi = static_cast<double>(lat_bucket_hi(i));
        EXPECT_LE((hi - lo) / lo, 0.125 + 1e-9) << "bucket " << i;
    }
}

TEST(LatencyHist, OverflowClampsToLastBucket) {
    const int last = LAT_BUCKETS - 1;
    EXPECT_EQ(lat_bucket_of(lat_bucket_lo(last)), last);
    EXPECT_EQ(lat_bucket_of(~std::uint64_t{0}), last);
    EXPECT_EQ(lat_bucket_of(std::uint64_t{1} << 63), last);
    // The overflow bucket is unbounded above.
    EXPECT_EQ(lat_bucket_hi(last), ~std::uint64_t{0});
}

// ---- merge algebra ---------------------------------------------------------

lat_summary random_summary(std::uint64_t seed, int samples) {
    prng rng(seed);
    lat_hist h;
    for (int i = 0; i < samples; ++i) {
        // Spread across ~6 decades so many buckets are live.
        const std::uint64_t ns = 1 + rng.next(1u << (5 + rng.next(25)));
        h.record(ns);
    }
    lat_summary s;
    s.add(h);
    return s;
}

bool summaries_equal(const lat_summary& a, const lat_summary& b) {
    return a.count == b.count && a.max_ns == b.max_ns &&
           a.buckets == b.buckets;
}

TEST(LatencyHist, MergeIsAssociativeAndCommutative) {
    const lat_summary a = random_summary(1, 500);
    const lat_summary b = random_summary(2, 300);
    const lat_summary c = random_summary(3, 700);

    lat_summary ab_c = a;
    ab_c.add(b);
    ab_c.add(c);
    lat_summary a_bc = b;
    a_bc.add(c);
    a_bc.add(a);
    lat_summary cba = c;
    cba.add(b);
    cba.add(a);

    EXPECT_TRUE(summaries_equal(ab_c, a_bc));
    EXPECT_TRUE(summaries_equal(ab_c, cba));
    EXPECT_EQ(ab_c.count, a.count + b.count + c.count);
}

TEST(LatencyHist, DeltaUndoesAdd) {
    const lat_summary prev = random_summary(4, 400);
    lat_summary cur = prev;
    const lat_summary fresh = random_summary(5, 250);
    cur.add(fresh);
    const lat_summary d = lat_summary::delta(cur, prev);
    EXPECT_EQ(d.count, fresh.count);
    EXPECT_EQ(d.buckets, fresh.buckets);
    // max is cumulative, not differencable: delta carries cur's max.
    EXPECT_EQ(d.max_ns, cur.max_ns);
}

// ---- percentiles -----------------------------------------------------------

TEST(LatencyHist, PercentilesTrackSortedOracle) {
    prng rng(42);
    lat_hist h;
    std::vector<std::uint64_t> oracle;
    for (int i = 0; i < 20000; ++i) {
        // Log-uniform-ish draw over [1, ~1e6) ns.
        const std::uint64_t ns = 1 + rng.next(1u << (2 + rng.next(18)));
        h.record(ns);
        oracle.push_back(ns);
    }
    std::sort(oracle.begin(), oracle.end());
    lat_summary s;
    s.add(h);
    ASSERT_EQ(s.count, oracle.size());

    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        const std::uint64_t est = s.percentile(q);
        const std::size_t rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(oracle.size())));
        const std::uint64_t exact = oracle[rank - 1];
        // The estimate must land within the bucket resolution (<= 12.5%
        // relative width) of the exact order statistic.
        EXPECT_LE(est, exact + exact / 7 + 1) << "q=" << q;
        EXPECT_GE(est + est / 7 + 1, exact) << "q=" << q;
    }
    // Degenerate quantiles stay in range.
    EXPECT_LE(s.percentile(1.0), s.max_ns);
    EXPECT_GT(s.percentile(0.0), 0u);
    // Empty summary yields 0.
    EXPECT_EQ(lat_summary{}.percentile(0.99), 0u);
}

TEST(LatencyHist, PercentileClampsToRecordedMax) {
    lat_hist h;
    h.record(1000);
    lat_summary s;
    s.add(h);
    // One sample: every quantile is that sample's bucket, capped at the
    // exact recorded max.
    EXPECT_EQ(s.percentile(0.5), s.percentile(0.999));
    EXPECT_LE(s.percentile(0.999), s.max_ns);
    EXPECT_EQ(s.max_ns, 1000u);
}

// ---- clock -----------------------------------------------------------------

TEST(LatencyClock, CalibrationTracksWallClock) {
    const std::string src = lat_clock::source_name();
    EXPECT_TRUE(src == "tsc" || src == "steady_clock") << src;

    const auto w0 = std::chrono::steady_clock::now();
    const std::uint64_t t0 = lat_clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::uint64_t t1 = lat_clock::now();
    const auto w1 = std::chrono::steady_clock::now();

    const std::uint64_t ns = lat_clock::to_nanos(t1 - t0);
    const std::uint64_t wall = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(w1 - w0)
            .count());
    // The calibrated TSC (or the steady fallback) must agree with the
    // wall clock to well within 2x on a 50ms sleep -- calibration bugs
    // (wrong shift, wrong frequency) miss by orders of magnitude.
    EXPECT_GT(ns, wall / 2);
    EXPECT_LT(ns, wall * 2);
    EXPECT_GT(ns, 20u * 1000 * 1000);   // > 20ms
    EXPECT_LT(ns, 1000u * 1000 * 1000); // < 1s
}

// ---- recorder + sampling gate ----------------------------------------------

TEST(LatencyRecorder, ArmHonorsSamplingPeriod) {
    harness::op_latency_recorder rec;
    rec.set_sample_every(4);
    int armed = 0;
    for (int i = 0; i < 100; ++i) {
        if (rec.arm()) ++armed;
    }
    EXPECT_EQ(armed, 25);

    rec.set_sample_every(0);
    for (int i = 0; i < 10; ++i) EXPECT_FALSE(rec.arm());

    rec.set_sample_every(1);
    for (int i = 0; i < 10; ++i) EXPECT_TRUE(rec.arm());
}

TEST(LatencyRecorder, RecordsPerOpKind) {
    harness::op_latency_recorder rec;
    rec.set_sample_every(1);
    rec.record(harness::op_kind::insert, 100);
    rec.record(harness::op_kind::insert, 200);
    rec.record(harness::op_kind::contains, 50);
    lat_summary ins;
    ins.add(rec.hist(harness::op_kind::insert));
    lat_summary con;
    con.add(rec.hist(harness::op_kind::contains));
    lat_summary era;
    era.add(rec.hist(harness::op_kind::erase));
    EXPECT_EQ(ins.count, 2u);
    EXPECT_EQ(ins.max_ns, 200u);
    EXPECT_EQ(con.count, 1u);
    EXPECT_EQ(era.count, 0u);
    rec.clear();
    lat_summary cleared;
    cleared.add(rec.hist(harness::op_kind::insert));
    EXPECT_EQ(cleared.count, 0u);
}

// ---- stall attribution -----------------------------------------------------

TEST(StallAttribution, DebugStatsAccumulatesPerSite) {
    debug_stats stats;
    stats.stall(0, stall_site::rotation, 1000);
    stats.stall(1, stall_site::rotation, 3000);
    stats.stall(0, stall_site::neutralize, 500);

    const lat_summary rot = stats.stall_summary(stall_site::rotation);
    EXPECT_EQ(rot.count, 2u);
    EXPECT_EQ(rot.max_ns, 3000u);
    const lat_summary neu = stats.stall_summary(stall_site::neutralize);
    EXPECT_EQ(neu.count, 1u);
    EXPECT_EQ(stats.stall_summary(stall_site::arena).count, 0u);

    stats.clear();
    EXPECT_EQ(stats.stall_summary(stall_site::rotation).count, 0u);
}

TEST(StallAttribution, TimedEventFilesItsColumn) {
    debug_stats stats;
    {
        obs::timed scope(&stats, 0, obs::trace_event::scan_free, 0, 0,
                         stat::hp_scans);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const lat_summary s = stats.stall_summary(stall_site::scan_free);
    ASSERT_EQ(s.count, 1u);
    EXPECT_GE(s.max_ns, 1u * 1000 * 1000);  // slept >= ~2ms
    EXPECT_EQ(stats.total(stat::hp_scans), 1u);
    // The column is the event's: a recovery files under neutralize.
    { obs::timed recovery(&stats, 0, obs::trace_event::neutralize_recovery); }
    EXPECT_EQ(stats.stall_summary(stall_site::neutralize).count, 1u);
    EXPECT_EQ(stats.stall_summary(stall_site::scan_free).count, 1u);
    // Null stats: the scope is inert (the reclaimers' stats_ may be null).
    { obs::timed inert(nullptr, 0, obs::trace_event::scan_free); }
}

// ---- end-to-end through the harness ----------------------------------------

TEST(LatencyTrial, SamplingOnPopulatesLatencyResult) {
    using mgr_t = testutil::bst_mgr<reclaim::reclaim_debra>;
    mgr_t mgr(2, testutil::fast_config<mgr_t>());
    ds::ellen_bst<testutil::key_t, testutil::val_t, mgr_t> bst(mgr);
    harness::workload_config cfg;
    cfg.num_threads = 2;
    cfg.key_range = 256;
    cfg.trial_ms = 80;
    cfg.lat_sample = 1;  // time every op: counts must be substantial
    const auto res = harness::run_trial(bst, mgr, cfg);
    EXPECT_GT(res.total_ops, 0);
    EXPECT_EQ(res.latency.sample_every, 1);
    EXPECT_EQ(res.latency.clock, lat_clock::source_name());
    // Every op was timed, so the merged total matches the op count.
    EXPECT_EQ(res.latency.total.count,
              static_cast<std::uint64_t>(res.total_ops));
    lat_summary per_kind;
    for (const auto& s : res.latency.ops) per_kind.add(s);
    EXPECT_EQ(per_kind.count, res.latency.total.count);
    EXPECT_GT(res.latency.total.percentile(0.5), 0u);
    EXPECT_GE(res.latency.total.max_ns,
              res.latency.total.percentile(0.999));
}

TEST(LatencyTrial, SamplingOffRecordsNothing) {
    using mgr_t = testutil::bst_mgr<reclaim::reclaim_debra>;
    mgr_t mgr(2, testutil::fast_config<mgr_t>());
    ds::ellen_bst<testutil::key_t, testutil::val_t, mgr_t> bst(mgr);
    harness::workload_config cfg;
    cfg.num_threads = 2;
    cfg.key_range = 256;
    cfg.trial_ms = 40;
    cfg.lat_sample = 0;
    const auto res = harness::run_trial(bst, mgr, cfg);
    EXPECT_GT(res.total_ops, 0);
    EXPECT_EQ(res.latency.sample_every, 0);
    EXPECT_EQ(res.latency.total.count, 0u);
    for (const auto& s : res.latency.ops) EXPECT_EQ(s.count, 0u);
}

}  // namespace
}  // namespace smr
