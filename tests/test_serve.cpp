// Tests for the sustained-service soak machinery: the invariant monitor's
// sliding-window growth rule (src/obs/snapshot.h), the snapshot streamer's
// JSONL timeline, and short end-to-end run_serve_trial_set runs covering
// pacing, registration churn, the leak canary and per-phase harvest (serve
// mode of the one trial loop in src/harness/workload.h).
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/report.h"
#include "harness/serve.h"
#include "obs/event_ring.h"
#include "obs/snapshot.h"
#include "util/debug_stats.h"

#include "ds_test_util.h"

namespace smr {
namespace {

using harness::json;
using obs::invariant_monitor;
using obs::monitor_config;

// ---- invariant monitor: the window rule ------------------------------------

TEST(InvariantMonitor, FlatSeriesNeverViolates) {
    monitor_config cfg;
    cfg.window = 2;
    cfg.min_growth = 10;
    cfg.consecutive = 2;
    cfg.warmup = 0;
    invariant_monitor m(cfg);
    for (int i = 0; i < 50; ++i) m.observe(1000, 5000);
    EXPECT_EQ(m.violations(), 0);
    EXPECT_EQ(m.first_violation_sample(), -1);
    EXPECT_TRUE(m.first_violation().empty());
}

TEST(InvariantMonitor, OscillationBelowThresholdIsNoise) {
    // Scan-and-free schemes bounce limbo by whole batches; the windowed
    // growth of a bounded oscillation is ~0 and must not accumulate.
    monitor_config cfg;
    cfg.window = 4;
    cfg.min_growth = 100;
    cfg.consecutive = 2;
    cfg.warmup = 0;
    invariant_monitor m(cfg);
    for (int i = 0; i < 100; ++i) {
        m.observe(i % 2 == 0 ? 0 : 64, 1 << 20);  // bounded sawtooth
    }
    EXPECT_EQ(m.violations(), 0);
}

TEST(InvariantMonitor, RequiresConsecutiveOverThresholdWindows) {
    monitor_config cfg;
    cfg.window = 2;
    cfg.min_growth = 10;
    cfg.consecutive = 3;
    cfg.warmup = 0;
    invariant_monitor m(cfg);
    // Samples 1..6: 0, 0, 100, 200, 300, 400. The first over-threshold
    // window appears at sample 3 (100 - 0), so the third consecutive one
    // lands at sample 5 -- the first violation.
    const long long series[] = {0, 0, 100, 200, 300, 400};
    long long at_violation = -1;
    for (int i = 0; i < 6; ++i) {
        m.observe(series[i], 0);
        if (at_violation < 0 && m.violations() > 0) {
            at_violation = m.samples();
        }
    }
    EXPECT_GE(m.violations(), 1);
    EXPECT_EQ(at_violation, 5);
    EXPECT_EQ(m.first_violation_sample(), 5);
    EXPECT_NE(m.first_violation().find("limbo_estimate"), std::string::npos)
        << m.first_violation();
}

TEST(InvariantMonitor, QuietWindowResetsTheStreak) {
    monitor_config cfg;
    cfg.window = 2;
    cfg.min_growth = 10;
    cfg.consecutive = 3;
    cfg.warmup = 0;
    invariant_monitor m(cfg);
    // Two over-threshold windows (samples 3, 4), then a quiet one at
    // sample 5 (106 - 100 = 6 <= 10) resets the streak; the ramp restarts
    // and only completes three consecutive windows at sample 8.
    const long long series[] = {0, 0, 100, 105, 106, 200, 300, 400};
    for (int i = 0; i < 5; ++i) m.observe(series[i], 0);
    EXPECT_EQ(m.violations(), 0);
    EXPECT_EQ(m.limbo_streak(), 0) << "quiet window must reset the streak";
    for (int i = 5; i < 8; ++i) m.observe(series[i], 0);
    EXPECT_EQ(m.violations(), 1);
    EXPECT_EQ(m.first_violation_sample(), 8);
}

TEST(InvariantMonitor, WarmupPrefixIsSkipped) {
    monitor_config cfg;
    cfg.window = 1;
    cfg.min_growth = 0;
    cfg.consecutive = 1;
    cfg.warmup = 3;
    invariant_monitor m(cfg);
    // A violent prefill transient inside the warmup prefix is ignored;
    // the first checked sample is #4, whose one-sample growth still
    // exceeds the threshold, so the violation lands exactly there.
    m.observe(0, 0);
    m.observe(100000, 0);
    m.observe(200000, 0);
    EXPECT_EQ(m.violations(), 0) << "warmup samples must not be checked";
    m.observe(300000, 0);
    EXPECT_EQ(m.violations(), 1);
    EXPECT_EQ(m.first_violation_sample(), 4);
    // Growth stops: the streak resets, no further violations.
    m.observe(300000, 0);
    EXPECT_EQ(m.violations(), 1);
    EXPECT_EQ(m.limbo_streak(), 0);
}

TEST(InvariantMonitor, FootprintAxisIsIndependentlyWatched) {
    monitor_config cfg;
    cfg.window = 2;
    cfg.min_growth = 10;
    cfg.consecutive = 2;
    cfg.warmup = 0;
    invariant_monitor m(cfg);
    // Limbo flat (healthy reclamation), footprint ramping (allocator-side
    // leak): the footprint axis alone must carry the verdict.
    for (int i = 0; i < 10; ++i) {
        m.observe(64, static_cast<long long>(i) * 100);
    }
    EXPECT_GE(m.violations(), 1);
    EXPECT_NE(m.first_violation().find("footprint_records"),
              std::string::npos)
        << m.first_violation();
    EXPECT_EQ(m.limbo_streak(), 0);
}

// ---- snapshot streamer -----------------------------------------------------

std::string temp_timeline_path(const char* tag) {
    return testing::TempDir() + "smr_serve_test_" + tag + "_" +
           std::to_string(::getpid()) + ".jsonl";
}

TEST(SnapshotStreamer, TimelineLinesAllValidate) {
    const std::string path = temp_timeline_path("basic");
    debug_stats stats;
    obs::g_event_trace.enable(2, 64);

    obs::snapshot_config cfg;
    cfg.snapshot_ms = 10;
    cfg.path = path;
    obs::snapshot_streamer streamer(cfg, &stats);
    streamer.set_augment(
        [](json* snap) { snap->set("churn_waves", 0LL); });

    json meta = json::object();
    meta.set("ds", std::string("unit_test"));
    meta.set("scheme", std::string("none"));
    streamer.start(harness::SMR_BENCH_SCHEMA_VERSION, meta);
    for (int i = 0; i < 5; ++i) {
        stats.add(0, stat::records_allocated, 10);
        stats.add(0, stat::records_retired, 8);
        stats.add(0, stat::records_pooled, 8);
        obs::trace_emit(0, obs::trace_event::limbo_rotation,
                        static_cast<std::uint64_t>(i), 0);
        obs::trace_emit(1, obs::trace_event::scan_free, 4, 0);
        std::this_thread::sleep_for(std::chrono::milliseconds(12));
    }
    streamer.stop();
    obs::g_event_trace.disable();

    EXPECT_GE(streamer.snapshots(), 2);
    EXPECT_EQ(streamer.events_drained(), 10u);
    EXPECT_EQ(streamer.events_dropped(), 0u);
    EXPECT_EQ(streamer.violations(), 0);
    EXPECT_EQ(streamer.limbo_estimate(), 0);   // retired == pooled
    EXPECT_EQ(streamer.footprint_records(), 50);

    // Every line is a self-contained, schema-valid JSON document and the
    // header comes first -- the contract trace_export relies on.
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open()) << path;
    std::string line;
    long long lines = 0, snapshots = 0, event_lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        auto parsed = json::parse(line);
        ASSERT_TRUE(parsed.has_value()) << "line " << lines << ": " << line;
        std::string err;
        EXPECT_TRUE(harness::validate_timeline_line(*parsed, &err))
            << "line " << lines << ": " << err;
        ASSERT_NE(parsed->find("type"), nullptr);
        const std::string type = parsed->find("type")->as_string();
        if (lines == 1) {
            EXPECT_EQ(type, "timeline_header");
        }
        if (type == "snapshot") ++snapshots;
        if (type == "events") ++event_lines;
    }
    in.close();
    EXPECT_EQ(snapshots, streamer.snapshots());
    EXPECT_GE(event_lines, 1);
    std::remove(path.c_str());
}

TEST(SnapshotStreamer, EmptyPathMonitorsWithoutWriting) {
    debug_stats stats;
    obs::snapshot_config cfg;
    cfg.snapshot_ms = 5;
    cfg.path = "";  // monitor-only: no file
    cfg.monitor.window = 1;
    cfg.monitor.min_growth = 0;
    cfg.monitor.consecutive = 1;
    cfg.monitor.warmup = 0;
    obs::snapshot_streamer streamer(cfg, &stats);
    streamer.start(harness::SMR_BENCH_SCHEMA_VERSION, json::object());
    // Sustained limbo growth: retired accrues, nothing is ever pooled.
    for (int i = 0; i < 30; ++i) {
        stats.add(0, stat::records_retired, 1000);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    streamer.stop();
    EXPECT_GE(streamer.snapshots(), 2);
    EXPECT_GE(streamer.violations(), 1);
    EXPECT_GE(streamer.first_violation_sample(), 1);
    EXPECT_FALSE(streamer.first_violation().empty());
}

TEST(SnapshotStreamer, StopIsIdempotent) {
    debug_stats stats;
    obs::snapshot_config cfg;
    cfg.snapshot_ms = 1000;
    obs::snapshot_streamer streamer(cfg, &stats);
    streamer.start(harness::SMR_BENCH_SCHEMA_VERSION, json::object());
    streamer.stop();
    const long long after_first = streamer.snapshots();
    EXPECT_GE(after_first, 1) << "stop() takes one final tick";
    streamer.stop();  // second stop is a no-op
    EXPECT_EQ(streamer.snapshots(), after_first);
}

// ---- end-to-end serve trials -----------------------------------------------

using testutil::key_t;
using testutil::val_t;
using serve_mgr_t = testutil::bst_mgr<reclaim::reclaim_debra>;

harness::workload_config base_serve_config(int trial_ms) {
    harness::workload_config cfg;
    cfg.num_threads = 2;
    cfg.key_range = 1024;
    cfg.insert_pct = 50;
    cfg.delete_pct = 50;
    cfg.trial_ms = trial_ms;
    cfg.lat_sample = 0;
    cfg.serve.enabled = true;
    cfg.serve.ops_per_sec = 40000;
    cfg.serve.snapshot_ms = 20;
    cfg.serve.ring_capacity = 256;
    return cfg;
}

TEST(ServeTrial, PacedSoakWithChurnProducesValidTimeline) {
#ifdef SMR_TSAN
    const int trial_ms = 300;
#else
    const int trial_ms = 500;
#endif
    const std::string path = temp_timeline_path("soak");
    serve_mgr_t mgr(2, testutil::fast_config<serve_mgr_t>());
    ds::ellen_bst<key_t, val_t, serve_mgr_t> bst(mgr);

    harness::workload_config cfg = base_serve_config(trial_ms);
    cfg.serve.timeline_path = path;
    cfg.serve.churn_period_ms = 60;
    cfg.serve.churn_threads = 1;

    json meta = json::object();
    meta.set("ds", std::string("ellen_bst"));
    meta.set("scheme", std::string("debra"));
    const auto res = harness::run_serve_trial_set(
        bst, mgr, cfg, harness::SMR_BENCH_SCHEMA_VERSION, meta);

    EXPECT_TRUE(res.serve.ran);
    EXPECT_GT(res.total_ops, 0);
    // Open-loop pacing: the token bucket cannot overshoot the arrival
    // curve by more than a batch per thread, so the achieved rate is
    // bounded above; no lower bound (a loaded CI box may lag).
    EXPECT_GT(res.serve.achieved_ops_per_sec, 0.0);
    EXPECT_LE(res.serve.achieved_ops_per_sec,
              res.serve.target_ops_per_sec * 1.5);
    EXPECT_GE(res.serve.snapshots, 3);
    EXPECT_GE(res.serve.churn_cycles, 1) << "churn waves must have fired";
    EXPECT_EQ(res.serve.canary_leaks, 0);
    EXPECT_GT(res.serve.events_drained, 0u)
        << "register/deregister churn alone must produce trace events";
    // No leak: default monitor thresholds tolerate scan oscillation.
    EXPECT_EQ(res.serve.monitor_violations, 0);
    EXPECT_EQ(res.serve.first_violation_snapshot, -1);
    // The structural invariant the closed-loop trials also enforce.
    EXPECT_EQ(res.final_size, res.expected_final_size);

    // Timeline on disk: header first, every line schema-valid.
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open()) << path;
    std::string line;
    long long lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        auto parsed = json::parse(line);
        ASSERT_TRUE(parsed.has_value()) << "line " << lines;
        std::string err;
        EXPECT_TRUE(harness::validate_timeline_line(*parsed, &err))
            << "line " << lines << ": " << err;
        if (lines == 1) {
            ASSERT_NE(parsed->find("type"), nullptr);
            EXPECT_EQ(parsed->find("type")->as_string(), "timeline_header");
            ASSERT_NE(parsed->find("mode"), nullptr);
            EXPECT_EQ(parsed->find("mode")->as_string(), "serve");
            ASSERT_NE(parsed->find("ds"), nullptr);
            EXPECT_EQ(parsed->find("ds")->as_string(), "ellen_bst");
        }
    }
    EXPECT_GE(lines, 1 + res.serve.snapshots);
    std::remove(path.c_str());
}

TEST(ServeTrial, CanaryLeakTripsTheMonitor) {
#ifdef SMR_TSAN
    const int trial_ms = 400;
#else
    const int trial_ms = 600;
#endif
    serve_mgr_t mgr(2, testutil::fast_config<serve_mgr_t>());
    ds::ellen_bst<key_t, val_t, serve_mgr_t> bst(mgr);

    harness::workload_config cfg = base_serve_config(trial_ms);
    // No timeline file: the verdict machinery alone is under test.
    cfg.serve.canary_leak_every = 5;
    cfg.serve.monitor_window = 2;
    cfg.serve.monitor_min_growth = 4;
    cfg.serve.monitor_consecutive = 2;
    cfg.serve.monitor_warmup = 1;

    const auto res = harness::run_serve_trial_set(
        bst, mgr, cfg, harness::SMR_BENCH_SCHEMA_VERSION);

    EXPECT_TRUE(res.serve.ran);
    EXPECT_GT(res.serve.canary_leaks, 0);
    EXPECT_GE(res.serve.monitor_violations, 1)
        << "the leak sentinel must trip on a deliberate leak";
    EXPECT_GE(res.serve.first_violation_snapshot, 1);
    // The canary leaks records *outside* the structure; the set-membership
    // invariant still holds even while the reclamation counters drift.
    EXPECT_EQ(res.final_size, res.expected_final_size);
}

TEST(ServeTrial, UnpacedZeroRateDegeneratesToClosedLoop) {
    serve_mgr_t mgr(2, testutil::fast_config<serve_mgr_t>());
    ds::ellen_bst<key_t, val_t, serve_mgr_t> bst(mgr);

    harness::workload_config cfg = base_serve_config(150);
    cfg.serve.ops_per_sec = 0;  // unpaced: run flat out, still sampled
    const auto res = harness::run_serve_trial_set(
        bst, mgr, cfg, harness::SMR_BENCH_SCHEMA_VERSION);

    EXPECT_TRUE(res.serve.ran);
    EXPECT_GT(res.total_ops, 0);
    EXPECT_EQ(res.serve.target_ops_per_sec, 0.0);
    EXPECT_GT(res.serve.achieved_ops_per_sec, 0.0);
    EXPECT_GE(res.serve.snapshots, 1);
    EXPECT_EQ(res.serve.monitor_violations, 0);
    EXPECT_EQ(res.final_size, res.expected_final_size);
}

TEST(ServeTrial, PhasedServeTrialHarvestsEveryPhaseBoundary) {
    // Serve mode runs the closed loop's control thread, so a phased soak
    // reports one phase_metrics entry per phase boundary plus the
    // trial-end close, exactly as run_trial does.
    serve_mgr_t mgr(2, testutil::fast_config<serve_mgr_t>());
    ds::ellen_bst<key_t, val_t, serve_mgr_t> bst(mgr);

    harness::workload_config cfg = base_serve_config(240);
    cfg.serve.ops_per_sec = 0;
    cfg.lat_sample = 4;
    cfg.phases = {{"churn", 40, 40, 60, 0}, {"read_mostly", 5, 5, 60, 0}};
    const auto res = harness::run_serve_trial_set(
        bst, mgr, cfg, harness::SMR_BENCH_SCHEMA_VERSION);

    EXPECT_TRUE(res.serve.ran);
    ASSERT_GE(res.phase_metrics.size(), 2u)
        << "at least one boundary plus the trial-end close";
    std::uint64_t lat_samples = 0;
    for (std::size_t i = 0; i < res.phase_metrics.size(); ++i) {
        const harness::phase_metric& m = res.phase_metrics[i];
        // The two phases alternate, starting with phase 0.
        EXPECT_EQ(m.phase, static_cast<int>(i % 2)) << "entry " << i;
        if (i > 0) {
            EXPECT_GE(m.at_ms, res.phase_metrics[i - 1].at_ms);
            const harness::phase_metric& prev = res.phase_metrics[i - 1];
            EXPECT_GE(m.counters[stat::records_retired],
                      prev.counters[stat::records_retired]);
        }
        lat_samples += m.lat_samples;
    }
    EXPECT_GT(lat_samples, 0u);
    EXPECT_LE(lat_samples, res.latency.total.count);
    ASSERT_EQ(res.phase_ops.size(), 2u);
    EXPECT_EQ(res.phase_ops[0] + res.phase_ops[1], res.total_ops);
    EXPECT_EQ(res.final_size, res.expected_final_size);
}

}  // namespace
}  // namespace smr
