// smr_bench -- the unified benchmark driver.
//
//   smr_bench --list
//   smr_bench --scenario=zipf_churn --ds=ellen_bst --scheme=debra,ibr
//             --threads=1,2,4,8 --trial-ms=100 --trials=3 --json=out.json
//
// One process run = one scenario = one JSON document (schema in
// harness/report.h, validated before it is written) plus the familiar
// human-readable tables on stdout -- except with --json=-, where the
// tables move to stderr so stdout carries nothing but the parseable
// document. Exit codes: 0 = ran and every size invariant held (and
// custom pass criteria passed), 1 = a trial violated the harness size
// invariant or a custom scenario failed, 2 = usage error. The
// smr_bench_smoke_* ctests lean on those codes.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <thread>

#include "harness/report.h"
#include "runners.h"
#include "scenarios.h"

namespace smr::bench {
namespace {

void print_usage() {
    std::printf(
        "smr_bench -- scenario-driven SMR benchmark driver\n\n"
        "usage: smr_bench --scenario=NAME [options]\n"
        "       smr_bench --list\n\n"
        "options:\n"
        "  --scenario=NAME      which scenario to run (see --list)\n"
        "  --ds=A,B             override the scenario's structures\n"
        "                       (ellen_bst, lazy_skiplist, harris_list,\n"
        "                       hash_map, treiber_stack, ms_queue)\n"
        "  --scheme=A,B         override the scenario's schemes (none, ebr,\n"
        "                       debra, debra+, hp, he, ibr)\n"
        "  --alloc=A,B          override the scenario's memory policies by\n"
        "                       allocator (bump, malloc, arena; 'discard'\n"
        "                       = Experiment-1 overhead policy). Each runs\n"
        "                       over the shared object pool\n"
        "  --pin=A,B            override the scenario's thread placement\n"
        "                       (none, compact, scatter)\n"
        "  --threads=1,2,4      thread counts to sweep\n"
        "  --trial-ms=N         per-trial duration in ms\n"
        "  --trials=N           trials per point (each emitted separately)\n"
        "  --keyrange=N         the 'large' key range scenarios refer to\n"
        "  --seed=N             base PRNG seed (trial t uses seed+t)\n"
        "  --lat-sample=N       time every Nth op per thread (default 32;\n"
        "                       0 disables latency recording)\n"
        "  --json=PATH          write the run document to PATH ('-' =\n"
        "                       stdout)\n"
        "  --list               list scenarios and exit\n\n"
        "serve mode (the smr_serve scenario):\n"
        "  --serve-rate=N       offered load in ops/s across all workers\n"
        "                       (token bucket per worker; default 100000)\n"
        "  --snapshot-ms=N      telemetry snapshot period (default 100)\n"
        "  --serve-churn-ms=N   thread-registration churn wave period\n"
        "                       (0 with --serve-churn-threads=0 = scenario\n"
        "                       default: 250ms, one churner)\n"
        "  --serve-churn-threads=N  workers that deregister/re-register\n"
        "                       each wave\n"
        "  --serve-monitor-window=N  leak-monitor sliding window, in\n"
        "                       snapshots (default 8)\n"
        "  --serve-monitor-growth=N  minimum per-window growth (records)\n"
        "                       counted as a violation (default 4096)\n"
        "  --serve-canary=N     leak one retired record every N ops on\n"
        "                       worker 0 (0 = off; the run must FAIL)\n"
        "  --timeline=PREFIX    write one JSONL timeline per cell to\n"
        "                       PREFIX.<ds>.<scheme>.jsonl (plus a\n"
        "                       .trial<N> suffix when --trials > 1)\n"
        "  --trace-ring=N       per-thread event ring capacity (default\n"
        "                       4096, rounded up to a power of two)\n\n"
        "environment defaults (flags win): SMR_TRIAL_MS, SMR_TRIALS,\n"
        "SMR_THREADS, SMR_KEYRANGE_LARGE, SMR_SERVE_RATE, SMR_SNAPSHOT_MS,\n"
        "SMR_SERVE_CHURN_MS, SMR_SERVE_CHURN_THREADS,\n"
        "SMR_SERVE_MONITOR_WINDOW, SMR_SERVE_MONITOR_GROWTH,\n"
        "SMR_SERVE_CANARY, SMR_TIMELINE, SMR_TRACE_RING\n");
}

void print_list() {
    std::printf("%-24s %-14s %s\n", "scenario", "kind", "paper mapping");
    std::printf("%-24s %-14s %s\n", "--------", "----", "-------------");
    for (const auto& s : all_scenarios()) {
        std::printf("%-24s %-14s %s\n", s.name.c_str(), s.kind(),
                    s.paper_ref.c_str());
        std::printf("%-24s   %s\n", "", s.summary.c_str());
        if (s.custom == nullptr) {
            std::string line = "default ds:";
            for (const auto& d : s.ds) line += " " + d;
            line += "; schemes:";
            for (const auto& c : s.schemes) line += " " + c;
            std::printf("%-24s   %s\n", "", line.c_str());
        }
    }
    std::printf("\n%zu scenarios\n", all_scenarios().size());
}

std::vector<int> resolve_threads(const scenario& sc,
                                 const harness::bench_config& cfg) {
    if (cfg.threads_explicit || !sc.shape.oversubscribe) {
        return cfg.thread_counts;
    }
    // Oversubscription scenarios default to a sweep past the core count
    // (the paper's Figure 9 regime), unless the user pinned --threads.
    std::vector<int> sweep = {1, 2, 4, 8, 16};
    const int cores =
        static_cast<int>(std::thread::hardware_concurrency());
    if (cores > 0) sweep.push_back(2 * cores);
    std::sort(sweep.begin(), sweep.end());
    sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());
    return sweep;
}

harness::json dist_to_json(const harness::key_dist_config& d) {
    harness::json j = harness::json::object();
    j.set("kind", harness::key_dist_kind_name(d.kind));
    if (d.kind == harness::key_dist_kind::zipf) {
        j.set("zipf_theta", d.zipf_theta);
    }
    if (d.kind == harness::key_dist_kind::hotspot) {
        j.set("hot_fraction", d.hot_fraction);
        j.set("hot_op_pct", d.hot_op_pct);
        j.set("slide_ms", d.slide_ms);
    }
    return j;
}

harness::json config_to_json(const scenario& sc,
                             const harness::bench_config& cfg,
                             const std::vector<int>& threads,
                             const std::vector<long long>& ranges,
                             const std::vector<policy_kind>& policies,
                             const std::vector<topo::pin_policy>& pins) {
    harness::json c = harness::json::object();
    c.set("trial_ms", cfg.trial_ms);
    c.set("trials", cfg.trials);
    harness::json th = harness::json::array();
    for (int t : threads) th.push_back(t);
    c.set("threads", std::move(th));
    c.set("seed", static_cast<long long>(cfg.seed));
    c.set("lat_sample", cfg.lat_sample);
    c.set("policy", policy_name(policies.front()));
    harness::json pol = harness::json::array();
    for (policy_kind p : policies) pol.push_back(policy_name(p));
    c.set("policies", std::move(pol));
    harness::json pj = harness::json::array();
    for (topo::pin_policy p : pins) {
        pj.push_back(topo::pin_policy_name(p));
    }
    c.set("pins", std::move(pj));
    harness::json kr = harness::json::array();
    for (long long r : ranges) kr.push_back(r);
    c.set("key_ranges", std::move(kr));
    c.set("dist", dist_to_json(sc.shape.dist));
    if (!sc.shape.phases.empty()) {
        harness::json ph = harness::json::array();
        for (const auto& p : sc.shape.phases) {
            harness::json o = harness::json::object();
            o.set("name", p.name);
            o.set("insert_pct", p.insert_pct);
            o.set("delete_pct", p.delete_pct);
            o.set("duration_ms", p.duration_ms);
            o.set("pause_us", p.pause_us);
            ph.push_back(std::move(o));
        }
        c.set("phases", std::move(ph));
    }
    if (sc.shape.rq_pct > 0) {
        c.set("rq_pct", sc.shape.rq_pct);
        c.set("rq_len", sc.shape.rq_len);
    }
    if (sc.shape.stall_straggler) {
        c.set("stall_straggler", true);
        c.set("stall_ms", sc.shape.stall_ms);
    }
    return c;
}

int run_workload_scenario(const scenario& sc,
                          const harness::bench_config& cfg,
                          harness::json* out) {
    const auto ds_list = cfg.ds_filter.empty() ? sc.ds : cfg.ds_filter;
    const auto schemes =
        cfg.scheme_filter.empty() ? sc.schemes : cfg.scheme_filter;
    const auto threads = resolve_threads(sc, cfg);

    // Memory-policy sweep: --alloc overrides the scenario; a scenario
    // without an explicit sweep runs its single policy (the pre-PR shape).
    std::vector<policy_kind> policies;
    if (!cfg.alloc_filter.empty()) {
        for (const auto& name : cfg.alloc_filter) {
            policy_kind p;
            if (!policy_for_alloc_name(name, &p)) {
                std::fprintf(stderr,
                             "smr_bench: --alloc: unknown allocator '%s' "
                             "(known: bump, malloc, arena, discard)\n",
                             name.c_str());
                return 2;
            }
            if (std::find(policies.begin(), policies.end(), p) ==
                policies.end()) {
                policies.push_back(p);
            }
        }
    } else if (!sc.policies.empty()) {
        policies = sc.policies;
    } else {
        policies = {sc.policy};
    }

    // Thread-placement sweep: --pin overrides the scenario's pins.
    std::vector<topo::pin_policy> pins;
    if (!cfg.pin_filter.empty()) {
        for (const auto& name : cfg.pin_filter) {
            topo::pin_policy p;
            if (!topo::parse_pin_policy(name, &p)) {
                std::fprintf(stderr,
                             "smr_bench: --pin: unknown policy '%s' "
                             "(known: none, compact, scatter)\n",
                             name.c_str());
                return 2;
            }
            if (std::find(pins.begin(), pins.end(), p) == pins.end()) {
                pins.push_back(p);
            }
        }
    } else {
        pins = sc.shape.pins;
    }
    if (pins.empty()) pins = {topo::pin_policy::none};

    std::vector<long long> ranges;
    for (long long r : sc.shape.key_ranges) {
        const long long resolved = r == 0 ? cfg.keyrange_large : r;
        // --keyrange can make the large-range placeholder collide with a
        // scenario's fixed range; don't sweep the same range twice.
        if (std::find(ranges.begin(), ranges.end(), resolved) ==
            ranges.end()) {
            ranges.push_back(resolved);
        }
    }

    print_banner(sc.name + " -- " + sc.summary + "\n[" + sc.paper_ref + "]",
                 cfg);

    // Phased scenarios run their schedule instead of a mix sweep; the
    // pseudo-mix keeps the table loop uniform.
    std::vector<op_mix> mixes = sc.shape.mixes;
    if (!sc.shape.phases.empty()) {
        mixes = {op_mix{"phased", 0, 0}};
    }

    harness::json points = harness::json::array();
    harness::json skipped = harness::json::array();
    std::set<std::string> skipped_cells;  // "ds/scheme", reported once each
    bool invariant_ok = true;

    for (policy_kind policy : policies) {
    for (topo::pin_policy pin : pins) {
    for (long long range : ranges) {
        for (const auto& mix : mixes) {
            for (const auto& ds : ds_list) {
                std::printf("\n%s keyrange [0,%lld) workload %s policy %s "
                            "pin %s  (Mops/s, mean of %d trial%s)\n",
                            ds.c_str(), range, mix.name.c_str(),
                            policy_name(policy), topo::pin_policy_name(pin),
                            cfg.trials, cfg.trials == 1 ? "" : "s");
                print_table_header(schemes);
                for (int t : threads) {
                    if (sc.shape.stall_straggler && t < 2) {
                        continue;  // need one worker + one straggler
                    }
                    std::vector<double> row;
                    for (const auto& scheme : schemes) {
                        harness::workload_config wl;
                        wl.num_threads = t;
                        wl.key_range = range;
                        wl.insert_pct = mix.insert_pct;
                        wl.delete_pct = mix.delete_pct;
                        wl.trial_ms = cfg.trial_ms;
                        wl.rq_pct = sc.shape.rq_pct;
                        wl.rq_len = sc.shape.rq_len;
                        wl.dist = sc.shape.dist;
                        wl.phases = sc.shape.phases;
                        wl.pin = pin;
                        wl.lat_sample = cfg.lat_sample;
                        if (sc.shape.stall_straggler) {
                            wl.stall_tid = t - 1;
                            wl.stall_ms = sc.shape.stall_ms;
                        }
                        double mops_sum = 0;
                        int ran = 0;
                        for (int trial = 0; trial < cfg.trials; ++trial) {
                            wl.seed = cfg.seed +
                                      static_cast<std::uint64_t>(trial);
                            harness::trial_result r;
                            std::string note;
                            const point_status st = run_point(
                                ds, scheme, policy, wl, &r, &note);
                            if (st == point_status::unknown_name) {
                                std::fprintf(stderr, "smr_bench: %s\n",
                                             note.c_str());
                                return 2;
                            }
                            if (st == point_status::unsupported) {
                                if (skipped_cells.insert(ds + "/" + scheme)
                                        .second) {
                                    std::fprintf(stderr,
                                                 "smr_bench: skipping "
                                                 "%s/%s: %s\n",
                                                 ds.c_str(), scheme.c_str(),
                                                 note.c_str());
                                    harness::json sk =
                                        harness::json::object();
                                    sk.set("ds", ds);
                                    sk.set("scheme", scheme);
                                    sk.set("reason", note);
                                    skipped.push_back(std::move(sk));
                                }
                                break;
                            }
                            if (!r.size_invariant_holds()) {
                                invariant_ok = false;
                                std::fprintf(
                                    stderr,
                                    "smr_bench: SIZE INVARIANT VIOLATED: "
                                    "%s/%s threads=%d trial=%d final=%lld "
                                    "expected=%lld\n",
                                    ds.c_str(), scheme.c_str(), t, trial,
                                    r.final_size, r.expected_final_size);
                            }
                            harness::point_meta meta;
                            meta.ds = ds;
                            meta.scheme = scheme;
                            meta.policy = policy_name(policy);
                            meta.threads = t;
                            meta.trial = trial;
                            meta.rq_pct = sc.shape.rq_pct;
                            meta.rq_len = sc.shape.rq_len;
                            harness::json p = harness::point_to_json(meta, r);
                            p.set("key_range", range);
                            p.set("mix", mix.name);
                            p.set("pin", topo::pin_policy_name(pin));
                            points.push_back(std::move(p));
                            mops_sum += r.mops_per_sec();
                            ++ran;
                        }
                        row.push_back(ran > 0 ? mops_sum / ran : -1.0);
                    }
                    print_table_row(t, row);
                }
            }
        }
    }
    }
    }

    harness::json config =
        config_to_json(sc, cfg, threads, ranges, policies, pins);
    harness::json ds_j = harness::json::array();
    for (const auto& d : ds_list) ds_j.push_back(d);
    config.set("ds", std::move(ds_j));
    harness::json sch_j = harness::json::array();
    for (const auto& s : schemes) sch_j.push_back(s);
    config.set("schemes", std::move(sch_j));

    *out = harness::make_run_document("workload", sc.name, sc.summary,
                                      sc.paper_ref, std::move(config),
                                      std::move(points), invariant_ok,
                                      invariant_ok);
    if (skipped.size() > 0) out->set("skipped", std::move(skipped));

    if (!invariant_ok) {
        std::printf("\nVERDICT: FAIL (size invariant violated; see "
                    "stderr)\n");
        return 1;
    }
    std::printf("\nVERDICT: OK (%lld points, all size invariants held)\n",
                static_cast<long long>(
                    out->find("verdict")->find("points")->as_int()));
    return 0;
}

/// Writes the document to `path`, or to `stdout_fd` when path is "-".
/// Short writes and close failures (disk full, quota) are errors: a
/// truncated artifact from a green run would defeat the pre-write schema
/// validation.
int write_json(const harness::json& doc, const std::string& path,
               int stdout_fd) {
    const std::string text = doc.dump(2) + "\n";
    if (path == "-") {
        std::size_t off = 0;
        while (off < text.size()) {
            const ssize_t n =
                ::write(stdout_fd, text.data() + off, text.size() - off);
            if (n <= 0) {
                std::fprintf(stderr,
                             "smr_bench: writing JSON to stdout failed\n");
                return 2;
            }
            off += static_cast<std::size_t>(n);
        }
        return 0;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "smr_bench: cannot open '%s' for writing\n",
                     path.c_str());
        return 2;
    }
    const bool wrote =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed) {
        std::fprintf(stderr, "smr_bench: writing '%s' failed (disk full?)\n",
                     path.c_str());
        return 2;
    }
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), text.size());
    return 0;
}

int driver_main(int argc, char** argv) {
    harness::bench_config cfg = harness::bench_config::from_env();
    std::string err;
    if (!cfg.apply_args(argc, argv, &err)) {
        std::fprintf(stderr, "smr_bench: %s\n", err.c_str());
        return 2;
    }
    if (cfg.help) {
        print_usage();
        return 0;
    }
    if (cfg.list) {
        print_list();
        return 0;
    }
    if (cfg.scenario.empty()) {
        std::fprintf(stderr,
                     "smr_bench: no --scenario given (try --list)\n");
        return 2;
    }
    const scenario* sc = find_scenario(cfg.scenario);
    if (sc == nullptr) {
        std::fprintf(stderr,
                     "smr_bench: unknown scenario '%s' (try --list)\n",
                     cfg.scenario.c_str());
        return 2;
    }
    if (sc->custom != nullptr && !sc->accepts_filters &&
        (!cfg.ds_filter.empty() || !cfg.scheme_filter.empty() ||
         !cfg.alloc_filter.empty() || !cfg.pin_filter.empty())) {
        // Silently running the wrong schemes would be worse than refusing.
        std::fprintf(stderr,
                     "smr_bench: scenario '%s' has a fixed shape and does "
                     "not take --ds/--scheme/--alloc/--pin\n",
                     sc->name.c_str());
        return 2;
    }
    if (sc->custom != nullptr && sc->accepts_filters &&
        (!cfg.alloc_filter.empty() || !cfg.pin_filter.empty())) {
        // smr_serve honors --ds/--scheme but fixes its memory policy and
        // thread placement; refuse the filters it would silently ignore.
        std::fprintf(stderr,
                     "smr_bench: scenario '%s' takes --ds/--scheme but not "
                     "--alloc/--pin\n",
                     sc->name.c_str());
        return 2;
    }

    // With --json=-, stdout belongs to the document alone: everything the
    // run prints (banners, tables, custom-scenario reports) moves to
    // stderr, and the saved fd receives only the JSON.
    int stdout_fd = 1;
    if (cfg.json_path == "-") {
        std::fflush(stdout);
        stdout_fd = ::dup(1);
        if (stdout_fd < 0 || ::dup2(2, 1) < 0) {
            std::fprintf(stderr, "smr_bench: cannot redirect tables to "
                                 "stderr for --json=-\n");
            return 2;
        }
    }

    harness::json doc;
    const int rc = sc->custom != nullptr
                       ? sc->custom(*sc, cfg, &doc)
                       : run_workload_scenario(*sc, cfg, &doc);
    if (rc == 2) return 2;

    std::string verr;
    if (!harness::validate_run_document(doc, &verr)) {
        // A schema violation is a driver bug; surface it loudly rather
        // than writing a document downstream tooling will choke on.
        std::fprintf(stderr,
                     "smr_bench: internal error: emitted document fails "
                     "its own schema: %s\n",
                     verr.c_str());
        return 1;
    }
    if (!cfg.json_path.empty()) {
        std::fflush(stdout);
        const int wrc = write_json(doc, cfg.json_path, stdout_fd);
        if (wrc != 0) return wrc;
    }
    return rc;
}

}  // namespace
}  // namespace smr::bench

int main(int argc, char** argv) {
    return smr::bench::driver_main(argc, argv);
}
