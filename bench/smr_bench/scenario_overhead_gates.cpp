// scenario_overhead_gates.cpp -- the three A/B gates that price one layer
// of the stack against the same run without it:
//
//   guard_overhead      the RAII guard layer against a faithful raw-API
//                       replica of the BST search hot path (bound 2%;
//                       formerly exp5_guard_overhead);
//   latency_overhead    per-op latency sampling at --lat-sample=32 against
//                       recording disabled (SMR_LAT_DELTA_PCT);
//   telemetry_overhead  the full recording stack -- event rings plus a
//                       snapshot streamer sampling every 50ms -- against
//                       tracing disabled (SMR_OBS_DELTA_PCT).
//
// All three run one paired protocol (ab_gate::run). Both arms share one
// prefilled tree, so every trial sees the same steady-state structure. One
// unscored warm-up trial of the reference arm comes first: the cold first
// trial would otherwise bias whichever arm runs first. Then --trials pairs
// (at least 3, so the median is meaningful), the arm order alternating per
// pair: within a pair the earlier trial runs slightly colder, and
// alternating puts that bias on each side equally often. The verdict
// statistic is the median paired delta (ref - test) / ref in percent --
// adjacent trials see the same machine state, so pairing cancels the drift
// a best-of-each comparison is exposed to. A gate fails (exit 1) when any
// of its medians exceeds its bound (percent). The recording gates read
// theirs from an environment variable, default 2: the smoke ctests set 10
// for their short, noisy trials, while the nightly runs keep 2.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "scenarios.h"
#include "util/barrier.h"
#include "util/timing.h"

namespace smr::bench {

namespace {

constexpr long long KEY_RANGE = 1 << 16;

/// One arm of an A/B: runs one trial seeded `seed`, returns its Mops/s.
using ab_arm = std::function<double(std::uint64_t seed)>;

/// The paired protocol, the verdict and the run document of one gate.
class ab_gate {
  public:
    /// `threshold_pct` is the gate's bound; `test` / `ref` name the arms
    /// (the table columns and the "<name>_mops" point fields).
    ab_gate(const scenario& sc, const harness::bench_config& cfg,
            int threshold_pct, const char* what, const char* test,
            const char* ref)
        : sc_(sc), cfg_(cfg), test_(test), ref_(ref),
          threshold_(threshold_pct) {
        cfg_.trials = std::max(cfg_.trials, 3);
        std::printf("%s: %s (%lld keys, %d ms x %d trials, threshold %d%%)\n",
                    sc.name.c_str(), what, KEY_RANGE, cfg_.trial_ms,
                    cfg_.trials, threshold_);
    }

    int threads() const { return cfg_.thread_counts.front(); }
    int trial_ms() const { return cfg_.trial_ms; }

    /// Warm-up plus --trials alternating pairs, pair i seeded seed + i.
    /// Prints the table row (`note`, when given, is read after the pairs
    /// and closes the row) and records the A/B as a point, returned for the
    /// scenario's own fields (the reference is valid until the next run()).
    harness::json& run(const char* scheme, std::uint64_t seed,
                       const ab_arm& test, const ab_arm& ref,
                       const std::function<std::string()>& note = nullptr) {
        (void)ref(seed);  // unscored warm-up
        double test_mops = 0, ref_mops = 0;
        std::vector<double> deltas;
        for (int trial = 0; trial < cfg_.trials; ++trial) {
            const std::uint64_t s = seed + static_cast<std::uint64_t>(trial);
            double t = 0, r = 0;
            if (trial % 2 == 0) {
                t = test(s);
                r = ref(s);
            } else {
                r = ref(s);
                t = test(s);
            }
            test_mops = std::max(test_mops, t);
            ref_mops = std::max(ref_mops, r);
            if (r > 0) deltas.push_back((r - t) / r * 100.0);
        }
        std::sort(deltas.begin(), deltas.end());
        const double delta = deltas.empty() ? 0.0 : deltas[deltas.size() / 2];
        if (delta > threshold_) ok_ = false;
        std::printf("%-8s %2d thr   %s %8.3f Mops/s   %s %8.3f Mops/s   "
                    "median paired delta %+6.2f%%%s\n",
                    scheme, threads(), test_, test_mops, ref_, ref_mops,
                    delta, note ? ("   (" + note() + ")").c_str() : "");

        harness::json p = harness::json::object();
        p.set("scheme", scheme);
        p.set("threads", threads());
        p.set(std::string(test_) + "_mops", test_mops);
        p.set(std::string(ref_) + "_mops", ref_mops);
        p.set("median_paired_delta_pct", delta);
        p.set("threshold_pct", threshold_);
        points_.push_back(std::move(p));
        return points_.back();
    }

    /// Prints "PASS|FAIL: <subject> is [NOT] within N% of <reference>" and
    /// writes the run document; returns the exit code.
    int finish(const char* subject, const char* reference,
               harness::json* doc) {
        std::printf("%s: %s is%s within %d%% of %s\n", ok_ ? "PASS" : "FAIL",
                    subject, ok_ ? "" : " NOT", threshold_, reference);
        harness::json points = harness::json::array();
        for (auto& p : points_) points.push_back(std::move(p));
        harness::json config = harness::json::object();
        config.set("key_range", KEY_RANGE);
        config.set("threshold_pct", threshold_);
        return bench::finish(sc_, cfg_, std::move(config), std::move(points),
                             true, ok_, doc);
    }

  private:
    const scenario& sc_;
    harness::bench_config cfg_;
    const char* test_;
    const char* ref_;
    int threshold_;
    bool ok_ = true;
    std::vector<harness::json> points_;
};

/// The gates' structure: an Ellen BST over `Scheme` + `Alloc` and the
/// shared pool, prefilled to half of KEY_RANGE with `seed`.
template <class Scheme, class Alloc>
struct ab_tree {
    using mgr_t = ds_ellen_bst::mgr_t<Scheme, Alloc, pool_shared>;
    mgr_t mgr;
    ds::ellen_bst<key_t, val_t, mgr_t> tree;

    ab_tree(int threads, std::uint64_t seed) : mgr(threads), tree(mgr) {
        auto h0 = mgr.register_thread(0);
        harness::prefill_to(tree, mgr.access(h0), KEY_RANGE, KEY_RANGE / 2,
                            seed);
    }
};

// ---- guard_overhead -----------------------------------------------------
//
// The data structures speak accessor/guard_ptr/op_guard exclusively, so the
// reference arm is a re-implementation of the BST search hot path (the
// seed's ellen_bst::find) against the raw tid-taking back-end: run_op +
// leave_qstate/enter_qstate + protect/unprotect + clear_protections,
// hand-paired exactly as before the API redesign. For epoch schemes (DEBRA)
// the guard layer must erase entirely: guard_ptr is a bare pointer and op()
// compiles to the same two announcement writes. For HP the guard destructor
// replaces the hand-written unprotect; the delta budget covers noise.

/// The raw-API replica of the seed's ellen_bst::find hot path, kept
/// faithful to the pre-redesign code line by line: clear_protections at
/// every search start, the hand-over-hand gp/p/l protect/unprotect chain
/// with update-word bookkeeping, and the Figure-5 finish sequence
/// (clear_protections; enter_qstate; runprotect_all).
template <class Mgr, class Tree>
bool raw_contains(Mgr& mgr, int tid, Tree& tree, const key_t& key) {
    using node_t = typename Tree::node_t;
    using sp = typename Tree::sp;
    std::optional<val_t> result;
    mgr.run_op(
        tid,
        [&](int t) {
            mgr.leave_qstate(t);
            for (;;) {
                // -- the seed's search() --
                mgr.clear_protections(t);
                node_t* gp = nullptr;
                node_t* p = nullptr;
                std::uintptr_t gpupdate = sp::pack(nullptr, ds::BST_CLEAN, 0);
                std::uintptr_t pupdate = sp::pack(nullptr, ds::BST_CLEAN, 0);
                node_t* l = tree.root();
                mgr.protect(t, l);  // root is never retired
                bool restart = false;
                while (!l->is_leaf()) {
                    if (gp != nullptr) mgr.unprotect(t, gp);
                    gp = p;
                    p = l;
                    gpupdate = pupdate;
                    pupdate = p->update.load(std::memory_order_acquire);
                    std::atomic<node_t*>* link =
                        (l->inf != 0 || key < l->key) ? &l->left : &l->right;
                    node_t* child = link->load(std::memory_order_acquire);
                    node_t* parent = l;
                    if (!mgr.protect(t, child, [&] {
                            const std::uintptr_t u = parent->update.load(
                                std::memory_order_seq_cst);
                            return sp::state(u) != ds::BST_MARK &&
                                   link->load(std::memory_order_seq_cst) ==
                                       child;
                        })) {
                        restart = true;
                        break;
                    }
                    l = child;
                }
                (void)gpupdate;
                if (restart) {
                    mgr.stats().add(t, stat::op_restarts);
                    continue;
                }
                result = (l->inf == 0 && l->key == key)
                             ? std::optional<val_t>(l->value)
                             : std::nullopt;
                break;
            }
            mgr.clear_protections(t);
            mgr.enter_qstate(t);
            mgr.runprotect_all(t);
            return true;
        },
        [&](int) { return false; });
    return result.has_value();
}

/// The lean worker window both guard arms run: `threads` workers doing
/// uniform searches for `trial_ms`, through the guard layer (raw == false)
/// or the raw back-end. Returns Mops/s.
template <class Mgr, class Tree>
double search_window(Mgr& mgr, Tree& tree, int threads, int trial_ms,
                     bool raw, std::uint64_t seed) {
    std::atomic<bool> start{false}, stop{false};
    std::atomic<long long> total_ops{0};
    spin_barrier ready(static_cast<std::uint32_t>(threads) + 1);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            auto handle = mgr.register_thread(t);
            auto acc = mgr.access(handle);
            prng rng(seed * 7919 + static_cast<std::uint64_t>(t));
            ready.arrive_and_wait();
            while (!start.load(std::memory_order_acquire)) {
                std::this_thread::yield();
            }
            long long ops = 0;
            while (!stop.load(std::memory_order_acquire)) {
                const key_t k = static_cast<key_t>(
                    rng.next(static_cast<std::uint64_t>(KEY_RANGE)));
                if (raw) {
                    (void)raw_contains(mgr, t, tree, k);
                } else {
                    (void)tree.contains(acc, k);
                }
                ++ops;
            }
            total_ops.fetch_add(ops);
        });
    }
    ready.arrive_and_wait();
    stopwatch timer;
    start.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(trial_ms));
    stop.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    const double secs = timer.elapsed_seconds();
    return secs > 0 ? total_ops.load() / secs / 1e6 : 0.0;
}

template <class Scheme>
void guard_ab(ab_gate& gate, const char* scheme) {
    ab_tree<Scheme, alloc_malloc> t(gate.threads(), 42);
    const auto arm = [&](bool raw) {
        return [&, raw](std::uint64_t seed) {
            return search_window(t.mgr, t.tree, gate.threads(),
                                 gate.trial_ms(), raw, seed);
        };
    };
    gate.run(scheme, 100, arm(false), arm(true));
}

// ---- latency_overhead / telemetry_overhead ------------------------------

/// Both arms of the recording gates: the paper's 50i-50d mix through the
/// harness trial loop (`wl`, latency sampling off unless an arm turns it
/// on) on an ellen_bst + debra tree.
struct recording_bench : ab_tree<reclaim::reclaim_debra, alloc_bump> {
    harness::workload_config wl;

    recording_bench(const ab_gate& gate, std::uint64_t seed)
        : ab_tree(gate.threads(), seed) {
        wl.num_threads = gate.threads();
        wl.key_range = KEY_RANGE;
        wl.trial_ms = gate.trial_ms();
        wl.prefill = false;
        wl.lat_sample = 0;
    }

    harness::trial_result trial(std::uint64_t seed) {
        wl.seed = seed;
        return harness::run_trial(tree, mgr, wl);
    }
};

}  // namespace

int run_guard_overhead(const scenario& sc, const harness::bench_config& cfg,
                       harness::json* doc) {
    ab_gate gate(sc, cfg, 2,
                 "guard layer vs raw API, BST search hot path", "guard",
                 "raw");
    guard_ab<reclaim::reclaim_debra>(gate, "debra");
    guard_ab<reclaim::reclaim_hp>(gate, "hp");
    return gate.finish("guard layer", "the raw API", doc);
}

// The armed sampling path is two thread-local instructions per op (counter
// increment + compare); only every 32nd op pays the clock-read pair and one
// relaxed histogram increment.
int run_latency_overhead(const scenario& sc,
                         const harness::bench_config& cfg,
                         harness::json* doc) {
    ab_gate gate(sc, cfg, harness::env_int("SMR_LAT_DELTA_PCT", 2),
                 "--lat-sample=32 vs --lat-sample=0, ellen_bst + debra, "
                 "50i-50d",
                 "sampled", "plain");
    recording_bench b(gate, cfg.seed);
    std::uint64_t samples = 0;
    const auto arm = [&](int lat_sample) {
        return [&, lat_sample](std::uint64_t seed) {
            b.wl.lat_sample = lat_sample;
            const harness::trial_result r = b.trial(seed);
            samples += r.latency.total.count;
            return r.mops_per_sec();
        };
    };
    harness::json& p = gate.run("debra", cfg.seed, arm(32), arm(0), [&] {
        return std::to_string(samples) + " samples, clock " +
               lat_clock::source_name();
    });
    p.set("samples", static_cast<long long>(samples));
    p.set("clock", std::string(lat_clock::source_name()));
    return gate.finish("latency recording at --lat-sample=32",
                       "recording disabled", doc);
}

// The traced arm is the *worst plausible* configuration: every reclamation
// event emitted (debra's rotations + epoch advances), a live sampler
// draining rings every 50ms, monitor on -- an unpaced serve-mode trial with
// no churn and no timeline file (disk writes would measure the filesystem,
// not the recording path). Both arms run the same trial loop, so the gate
// prices the recording stack alone.
int run_telemetry_overhead(const scenario& sc,
                           const harness::bench_config& cfg,
                           harness::json* doc) {
    ab_gate gate(sc, cfg, harness::env_int("SMR_OBS_DELTA_PCT", 2),
                 "event trace + 50ms snapshot streamer vs tracing disabled, "
                 "ellen_bst + debra, 50i-50d",
                 "traced", "plain");
    recording_bench b(gate, cfg.seed);
    b.wl.serve.ops_per_sec = 0;
    b.wl.serve.snapshot.snapshot_ms = 50;
    std::uint64_t events = 0;
    const auto arm = [&](bool traced) {
        return [&, traced](std::uint64_t seed) {
            b.wl.serve.enabled = traced;
            const harness::trial_result r = b.trial(seed);
            events += r.serve.events_drained;
            return r.mops_per_sec();
        };
    };
    harness::json& p = gate.run("debra", cfg.seed, arm(true), arm(false), [&] {
        return std::to_string(events) + " events drained";
    });
    p.set("events_drained", static_cast<long long>(events));
    return gate.finish("event tracing + snapshot streaming",
                       "tracing disabled", doc);
}

}  // namespace smr::bench
