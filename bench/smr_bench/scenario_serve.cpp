// scenario_serve.cpp -- the sustained-service driver mode (smr_serve):
// open-loop soak with streaming telemetry and the leak sentinel.
//
// One cell = one (ds, scheme) pair served at a fixed offered load
// (--serve-rate, token bucket per worker) under a drifting hotspot and a
// churn/read-mostly phase script, with the last workers deregistering and
// re-registering in waves (--serve-churn-ms / --serve-churn-threads). The
// snapshot streamer writes one JSONL timeline per cell (--timeline prefix;
// tools/trace_export turns it into a Perfetto-loadable Chrome trace), and
// the invariant monitor fails the run on sustained limbo or footprint
// growth -- the leak verdict the soak exists to produce.
//
// --serve-canary=N arms the sentinel's proof: worker 0 deliberately leaks
// one retired record every N ops, and the run must FAIL (the WILL_FAIL
// ctest entry pins that the monitor actually trips on a real leak).
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "harness/report.h"
#include "runners.h"
#include "scenarios.h"

namespace smr::bench {

namespace {

/// Scenario churn default when the user set neither knob: a wave every
/// 250ms, one churner, as soon as there is a worker to spare. Worker 0
/// never churns.
void resolve_churn(int threads, harness::serve_config* sv) {
    if (sv->churn_period_ms == 0 && sv->churn_threads == 0 && threads >= 2) {
        sv->churn_period_ms = 250;
        sv->churn_threads = 1;
    }
    if (sv->churn_threads >= threads) sv->churn_threads = threads - 1;
    if (sv->churn_threads < 0) sv->churn_threads = 0;
}

}  // namespace

int run_smr_serve(const scenario& sc, const harness::bench_config& cfg,
                  harness::json* doc) {
    const auto ds_list = cfg.ds_filter.empty() ? sc.ds : cfg.ds_filter;
    const auto schemes =
        cfg.scheme_filter.empty() ? sc.schemes : cfg.scheme_filter;
    const int threads = cfg.thread_counts.front();
    const long long key_range = cfg.keyrange_large;
    const harness::serve_config& flags = cfg.serve;
    const std::string& timeline_prefix = flags.snapshot.path;

    print_banner(sc.name + " -- " + sc.summary + "\n[" + sc.paper_ref + "]",
                 cfg);
    std::printf(
        "serve: %lld ops/s across %d threads, %d ms, snapshot every %d ms, "
        "ring %lld%s\n",
        flags.ops_per_sec, threads, cfg.trial_ms,
        flags.snapshot.snapshot_ms, flags.ring_capacity,
        flags.canary_leak_every > 0 ? "  [LEAK CANARY ARMED]" : "");

    harness::json points = harness::json::array();
    bool invariant_ok = true;
    bool monitor_ok = true;

    for (const auto& ds : ds_list) {
        for (const auto& scheme : schemes) {
            harness::workload_config wl;
            wl.num_threads = threads;
            wl.key_range = key_range;
            wl.trial_ms = cfg.trial_ms;
            wl.lat_sample = cfg.lat_sample;
            wl.seed = cfg.seed;
            // The soak shape: a 1% hotspot taking 90% of ops, sliding
            // every 50ms, through alternating churn / read-mostly phases.
            wl.dist.kind = harness::key_dist_kind::hotspot;
            wl.dist.hot_fraction = 0.01;
            wl.dist.hot_op_pct = 90;
            wl.dist.slide_ms = 50;
            wl.phases = {{"churn", 40, 40, 60, 0},
                         {"read_mostly", 5, 5, 60, 0}};
            wl.serve = flags;
            wl.serve.enabled = true;
            // reclaim_none keeps every retired record forever: unbounded
            // limbo growth is its documented contract (DESIGN.md Section
            // 3's limbo bound), not a leak. The sentinel would trivially
            // flag it, so that one scheme soaks with the monitor
            // disarmed -- the cell still streams its full timeline.
            const bool monitored = scheme != "none";
            if (!monitored) {
                wl.serve.snapshot.monitor.min_growth =
                    std::numeric_limits<long long>::max() / 2;
            }
            resolve_churn(threads, &wl.serve);

            for (int trial = 0; trial < cfg.trials; ++trial) {
                wl.seed = cfg.seed + static_cast<std::uint64_t>(trial);
                if (!timeline_prefix.empty()) {
                    // One timeline file per trial: the streamer opens with
                    // trunc, so a shared per-cell path would leave only
                    // the last trial's data behind every point's
                    // "timeline" reference. Single-trial runs keep the
                    // plain per-cell name (CI and the ctest fixtures
                    // reference it literally).
                    wl.serve.snapshot.path =
                        timeline_prefix + "." + ds + "." + scheme +
                        (cfg.trials > 1 ? ".trial" + std::to_string(trial)
                                        : "") +
                        ".jsonl";
                }
                harness::trial_result r;
                std::string note;
                const point_status st = run_point(ds, scheme,
                                                  policy_kind::reclaim, wl,
                                                  &r, &note);
                if (st == point_status::unknown_name) {
                    std::fprintf(stderr, "smr_bench: %s\n", note.c_str());
                    return 2;
                }
                if (st == point_status::unsupported) {
                    std::fprintf(stderr, "smr_bench: skipping %s/%s: %s\n",
                                 ds.c_str(), scheme.c_str(), note.c_str());
                    break;
                }
                if (!r.size_invariant_holds()) {
                    invariant_ok = false;
                    std::fprintf(stderr,
                                 "smr_bench: SIZE INVARIANT VIOLATED: "
                                 "%s/%s final=%lld expected=%lld\n",
                                 ds.c_str(), scheme.c_str(), r.final_size,
                                 r.expected_final_size);
                }
                if (r.serve.monitor_violations > 0) monitor_ok = false;

                std::printf(
                    "%-14s %-7s  %9.0f/%-9.0f ops/s  %4lld snaps  "
                    "%6llu ev (%llu dropped)  churn %lld  leaks %lld  "
                    "violations %lld%s\n",
                    ds.c_str(), scheme.c_str(),
                    r.serve.achieved_ops_per_sec,
                    r.serve.target_ops_per_sec, r.serve.snapshots,
                    static_cast<unsigned long long>(r.serve.events_drained),
                    static_cast<unsigned long long>(r.serve.events_dropped),
                    r.serve.churn_cycles, r.serve.canary_leaks,
                    r.serve.monitor_violations,
                    r.serve.monitor_violations > 0
                        ? "  <-- LEAK"
                        : (monitored ? "" : "  (monitor off: no reclamation)"));

                harness::point_meta meta;
                meta.ds = ds;
                meta.scheme = scheme;
                meta.policy = policy_name(policy_kind::reclaim);
                meta.threads = threads;
                meta.trial = trial;
                harness::json p = harness::point_to_json(meta, r);
                p.set("key_range", key_range);
                p.set("mix", std::string("serve"));
                if (!wl.serve.snapshot.path.empty()) {
                    p.set("timeline", wl.serve.snapshot.path);
                }
                if (!monitored) p.set("monitor_disarmed", true);
                points.push_back(std::move(p));
            }
        }
    }

    harness::json config = harness::json::object();
    config.set("trial_ms", cfg.trial_ms);
    config.set("trials", cfg.trials);
    harness::json th = harness::json::array();
    for (int t : cfg.thread_counts) th.push_back(t);
    config.set("threads", std::move(th));
    config.set("seed", static_cast<long long>(cfg.seed));
    config.set("key_range", key_range);
    config.set("serve_rate", flags.ops_per_sec);
    config.set("snapshot_ms", flags.snapshot.snapshot_ms);
    config.set("serve_churn_ms", flags.churn_period_ms);
    config.set("serve_churn_threads", flags.churn_threads);
    config.set("serve_monitor_window", flags.snapshot.monitor.window);
    config.set("serve_monitor_growth", flags.snapshot.monitor.min_growth);
    config.set("serve_canary", flags.canary_leak_every);
    config.set("trace_ring", flags.ring_capacity);
    if (!timeline_prefix.empty()) {
        config.set("timeline_prefix", timeline_prefix);
    }

    const bool ok = invariant_ok && monitor_ok;
    *doc = harness::make_run_document(sc.kind(), sc.name, sc.summary,
                                      sc.paper_ref, std::move(config),
                                      std::move(points), invariant_ok, ok);
    if (!ok) {
        std::printf("\nVERDICT: FAIL (%s)\n",
                    !invariant_ok ? "size invariant violated"
                                  : "leak monitor tripped");
        return 1;
    }
    std::printf("\nVERDICT: OK (all cells held rate, no sustained "
                "limbo/footprint growth)\n");
    return 0;
}

}  // namespace smr::bench
