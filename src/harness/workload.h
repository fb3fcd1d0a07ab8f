// workload.h -- the paper's experimental harness (Section 7), generalized
// over the container concepts of src/ds/concepts.h.
//
// Every experiment in the paper follows the same shape: prefill a set data
// structure to half its key range, then have T threads perform a random
// operation mix (x% insert / y% delete / rest search) on uniform keys for a
// fixed wall-clock interval, and report throughput plus memory metrics.
// This header implements that harness once, for any structure satisfying a
// container concept and any record_manager instantiation:
//
//   run_trial          ordered_set_like structures: insert / erase /
//                      contains plus (rq_pct > 0) range_query ops, the
//                      workload that stresses per-access protection
//                      windows;
//   run_pushpop_trial  stack_queue_like structures: push / try_pop mixes,
//                      which finally lets treiber_stack and ms_queue into
//                      the scenario registry.
//
// Correctness guard: each thread tracks the net number of keys (elements)
// it added; after the trial the structure's size must equal the prefill
// size plus the summed deltas. A reclamation bug that frees a reachable
// node reliably breaks this (or crashes), so every benchmark run doubles
// as a large randomized test.
//
// Per-phase metric harvest: phased trials snapshot the reclamation
// counters (cumulative, from debug_stats -- race-free relaxed atomics) at
// every phase transition and at the end of the trial, so limbo waves in
// scenarios like zipf_churn are visible directly instead of only as
// trial-end totals.
//
// Serve mode (cfg.serve.enabled; DESIGN.md Section 12.5) turns the same
// loop into a sustained-service soak: "does it stay healthy at a fixed
// offered load", not "how fast". Each part has its own switch:
//
//   watch    serve mode itself: event rings plus a snapshot_streamer whose
//            JSONL timeline (none if snapshot.path is empty) and invariant
//            monitor turn sustained limbo/footprint growth into a verdict;
//   pacing   ops_per_sec > 0: a per-worker open-loop token bucket, so a
//            scheme stall shows up as a rate deficit instead of being
//            hidden by the closed loop's natural backoff;
//   churn    churn_period_ms > 0 && churn_threads > 0: waves in which the
//            last churn_threads workers deregister and re-register;
//   canary   canary_leak_every > 0: worker 0 deliberately leaks retired
//            records, and the monitor must trip.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "../obs/event_ring.h"
#include "../obs/snapshot.h"
#include "../topo/pin.h"
#include "../util/barrier.h"
#include "../util/debug_stats.h"
#include "../util/padded.h"
#include "../util/prng.h"
#include "../util/timing.h"
#include "json.h"
#include "key_dist.h"
#include "latency.h"
#include "schedule.h"

namespace smr::harness {

/// Sustained-service ("soak") mode: instead of a closed loop saturating the
/// structure, every worker paces itself against an open-loop arrival rate
/// (token bucket), while a sampler thread streams snapshot + event timelines
/// and an invariant monitor watches limbo / footprint for monotone growth
/// (the leak sentinel). Every field but `enabled` is ignored unless
/// `enabled` is set; see the header comment for which value switches what.
struct serve_config {
    bool enabled = false;
    /// Total offered load across all workers, ops/sec. Split evenly per
    /// thread; 0 = unpaced (degenerates to the closed loop, still with
    /// snapshots + monitor).
    long long ops_per_sec = 100000;
    /// Thread-churn waves: every churn_period_ms the last `churn_threads`
    /// workers deregister and re-register (fresh thread_handle), exercising
    /// the register/deregister path mid-service. 0 disables churn.
    int churn_period_ms = 0;
    int churn_threads = 0;
    /// Event-ring capacity per thread (rounded up to a power of two).
    long long ring_capacity = 4096;
    /// Leak canary: when > 0, worker 0 deliberately leaks one retired
    /// record every N operations (record_manager::leak_retired_record).
    /// The monitor must trip on it -- proves the sentinel detects leaks.
    long long canary_leak_every = 0;
    /// The sampler: snapshot period, JSONL timeline path (empty =
    /// monitor-only, no file) and the invariant monitor's tuning.
    obs::snapshot_config snapshot;
};

/// Serve-mode harvest, populated only when serve_config::enabled.
struct serve_result {
    bool ran = false;
    long long snapshots = 0;
    long long monitor_violations = 0;
    long long first_violation_snapshot = -1;
    double target_ops_per_sec = 0;
    double achieved_ops_per_sec = 0;
    long long churn_cycles = 0;
    long long canary_leaks = 0;
    std::uint64_t events_drained = 0;
    std::uint64_t events_dropped = 0;
};

struct workload_config {
    int num_threads = 2;
    long long key_range = 10000;
    int insert_pct = 50;
    int delete_pct = 50;
    int trial_ms = 200;
    std::uint64_t seed = 1;
    bool prefill = true;
    /// When >= 0, thread `stall_tid` does not run the operation mix;
    /// instead it repeatedly leaves a quiescent state and sleeps for
    /// `stall_ms`, blocking the epoch exactly like the paper's preempted
    /// processes (Figure 9 discussion). Requires the data structure's
    /// manager; neutralizable schemes recover via run_op.
    int stall_tid = -1;
    int stall_ms = 10;
    /// Set-shaped trials only: percentage of operations that are range
    /// queries of `rq_len` consecutive keys (carved out of the contains
    /// share; insert_pct + delete_pct + rq_pct must stay <= 100).
    int rq_pct = 0;
    long long rq_len = 100;
    /// Key distribution (default: the paper's uniform draw).
    key_dist_config dist;
    /// Phased schedule. Empty = one phase of {insert_pct, delete_pct} for
    /// the whole trial (the paper's shape). Non-empty = the phases cycle
    /// for trial_ms, overriding insert_pct/delete_pct.
    std::vector<phase_spec> phases;
    /// Thread placement: workers pin themselves per this policy at
    /// registration time (worker t = pin index t). Default: scheduler's
    /// choice, the pre-topology behavior.
    topo::pin_policy pin = topo::pin_policy::none;
    /// Per-op latency sampling: every N-th operation per thread is timed
    /// into the per-op-kind histograms (--lat-sample). 0 disables
    /// recording; 1 times every operation.
    int lat_sample = 32;
    /// Sustained-service mode: switches on the serve parts of the trial loop.
    serve_config serve;
};

/// One snapshot of the (cumulative) reclamation counters, taken by the
/// control thread at a phase transition or at trial end. Differencing
/// consecutive snapshots yields per-phase-occurrence deltas.
struct phase_metric {
    int phase = 0;            // phase that just ended
    long long at_ms = 0;      // elapsed trial time at the snapshot
    stat_totals counters;     // report.h's doc_counters picks the keys
    /// retired - pooled: records sitting in limbo bags, estimated from the
    /// race-free counters (limbo bag sizes themselves are owner-local).
    long long limbo_estimate = 0;
    /// Latency of the phase occurrence that just ended: percentiles of the
    /// *delta* histogram (all op kinds merged) between this snapshot and
    /// the previous one. lat_max_ns is cumulative (a max cannot be
    /// differenced); lat_samples counts this occurrence's timed ops.
    std::uint64_t lat_samples = 0;
    std::uint64_t lat_p50_ns = 0;
    std::uint64_t lat_p99_ns = 0;
    std::uint64_t lat_p999_ns = 0;
    std::uint64_t lat_max_ns = 0;
};

struct trial_result {
    double seconds = 0;
    long long total_ops = 0;
    long long finds = 0;
    long long inserts_attempted = 0;
    long long deletes_attempted = 0;
    long long inserts_succeeded = 0;
    long long deletes_succeeded = 0;
    long long range_queries = 0;    // range_query ops completed
    long long range_keys = 0;       // keys delivered to range visitors
    long long prefill_size = 0;
    long long final_size = 0;
    long long expected_final_size = 0;

    // Reclamation metrics harvested from debug_stats after the trial
    // (report.h's doc_counters picks the ones a run document reports).
    stat_totals counters;
    long long limbo_records = 0;     // still waiting to be freed at the end
    long long allocated_bytes = -1;  // bump allocators only (Figure 9 right)

    /// Operations completed while each schedule phase was active, summed
    /// over workers (index = phase index; one entry for phase-less runs).
    std::vector<long long> phase_ops;

    /// Cumulative counter snapshots at phase boundaries (phased trials
    /// only; empty otherwise). See phase_metric.
    std::vector<phase_metric> phase_metrics;

    /// Per-op latency histograms + stall attribution (schema v3's
    /// "latency" stanza). Empty (count 0) when lat_sample was 0.
    latency_result latency;

    /// Serve-mode telemetry (schema v4's "serve" stanza); ran == false for
    /// closed-loop trials.
    serve_result serve;

    double mops_per_sec() const {
        return seconds > 0 ? total_ops / seconds / 1e6 : 0.0;
    }
    bool size_invariant_holds() const {
        return final_size == expected_final_size;
    }
};

/// Fills `ds` with uniformly random keys until it holds `target` keys.
/// Runs on the calling thread through `acc`, an accessor minted from a
/// live thread_handle.
template <class DS, class Acc>
long long prefill_to(DS& ds, Acc acc, long long key_range, long long target,
                     std::uint64_t seed) {
    prng rng(seed ^ 0xabcdef12345ULL);
    long long size = 0;
    while (size < target) {
        const long long key = static_cast<long long>(
            rng.next(static_cast<std::uint64_t>(key_range)));
        if (ds.insert(acc, key, key)) ++size;
    }
    return size;
}

namespace workload_detail {

/// Per-worker tallies, shared by both operation shapes (push maps onto
/// the insert columns, pop onto the delete columns).
struct per_thread {
    long long ops = 0;
    long long finds = 0;
    long long ins_att = 0, ins_ok = 0;
    long long del_att = 0, del_ok = 0;
    long long rqs = 0, rq_keys = 0;
    long long net_keys = 0;
    std::vector<long long> phase_ops;
};

/// Snapshot the cumulative reclamation counters (control thread; workers
/// only ever touch their own debug_stats cells with relaxed atomics, so
/// this is race-free mid-trial).
inline phase_metric snapshot_counters(const debug_stats& d, int phase,
                                      long long at_ms) {
    phase_metric m;
    m.phase = phase;
    m.at_ms = at_ms;
    m.counters = d.totals();
    m.limbo_estimate =
        static_cast<long long>(m.counters[stat::records_retired]) -
        static_cast<long long>(m.counters[stat::records_pooled]);
    return m;
}

/// The ordered_set_like operation arm: insert / erase / range_query /
/// contains, diced per the active mix.
struct set_shape {
    template <class DS, class Acc>
    static long long prefill(DS& ds, Acc acc, const workload_config& cfg) {
        return prefill_to(ds, acc, cfg.key_range, cfg.key_range / 2,
                          cfg.seed);
    }

    /// `lat` is non-null only for operations the sampling gate armed; the
    /// op_timing scopes bracket just the data structure call, so restarts
    /// inside it (neutralization, validation failures) are measured and
    /// the harness's own dice/tally work is not.
    template <class DS, class Acc>
    static void do_op(DS& ds, Acc acc, const workload_config& cfg,
                      const key_dist_shared& dist, prng& rng, int ins_pct,
                      int del_pct, per_thread& mine,
                      op_latency_recorder* lat) {
        const long long key = dist.next(rng);
        const std::uint64_t dice = rng.next(100);
        if (dice < static_cast<std::uint64_t>(ins_pct)) {
            ++mine.ins_att;
            op_timing tm(lat);
            const bool ok = ds.insert(acc, key, key);
            tm.done(op_kind::insert);
            if (ok) {
                ++mine.ins_ok;
                ++mine.net_keys;
            }
        } else if (dice < static_cast<std::uint64_t>(ins_pct + del_pct)) {
            ++mine.del_att;
            op_timing tm(lat);
            const bool ok = ds.erase(acc, key).has_value();
            tm.done(op_kind::erase);
            if (ok) {
                ++mine.del_ok;
                --mine.net_keys;
            }
        } else if (dice < static_cast<std::uint64_t>(ins_pct + del_pct +
                                                     cfg.rq_pct)) {
            // Range scan of rq_len consecutive keys starting at the drawn
            // key. The visitor is empty: range_query's return value is the
            // delivered-key count (and is safe under neutralization, where
            // a plain local counter would not be).
            long long hi = key + cfg.rq_len - 1;
            if (hi >= cfg.key_range) hi = cfg.key_range - 1;
            ++mine.rqs;
            op_timing tm(lat);
            const long long delivered = ds.range_query(
                acc, key, hi, [](const auto&, const auto&) { return true; });
            tm.done(op_kind::range_query);
            mine.rq_keys += delivered;
        } else {
            ++mine.finds;
            op_timing tm(lat);
            (void)ds.contains(acc, key);
            tm.done(op_kind::contains);
        }
    }
};

/// The stack_queue_like operation arm: the mix's insert share pushes, the
/// rest pops (pop "succeeds" when the container was non-empty).
struct pushpop_shape {
    template <class DS, class Acc>
    static long long prefill(DS& ds, Acc acc, const workload_config& cfg) {
        const long long target = cfg.key_range / 2;
        for (long long i = 0; i < target; ++i) {
            ds.push(acc, i);
        }
        return target;
    }

    /// Push times as op_kind::insert and pop as op_kind::erase, the same
    /// column reuse as the op-count tallies.
    template <class DS, class Acc>
    static void do_op(DS& ds, Acc acc, const workload_config& cfg,
                      const key_dist_shared& dist, prng& rng, int ins_pct,
                      int /*del_pct*/, per_thread& mine,
                      op_latency_recorder* lat) {
        const long long value = dist.next(rng);
        const std::uint64_t dice = rng.next(100);
        if (dice < static_cast<std::uint64_t>(ins_pct)) {
            ++mine.ins_att;
            op_timing tm(lat);
            ds.push(acc, value);
            tm.done(op_kind::insert);
            ++mine.ins_ok;
            ++mine.net_keys;
        } else {
            ++mine.del_att;
            op_timing tm(lat);
            const bool ok = ds.try_pop(acc).has_value();
            tm.done(op_kind::erase);
            if (ok) {
                ++mine.del_ok;
                --mine.net_keys;
            }
        }
        (void)cfg;
    }
};

/// Max ops a paced worker issues per token-bucket wakeup: big enough to
/// amortize the clock read, small enough that a stop/churn signal is
/// honored promptly.
inline constexpr long long SERVE_BATCH = 64;

/// The one trial loop, shared by both shapes and by serve mode: prefill,
/// spawn workers under RAII thread handles, run the control loop (phase
/// publication, hotspot sliding, churn waves, per-phase counter
/// snapshots), harvest. `schema_version` and `meta` stamp a serve-mode
/// timeline's header line (report.h's SMR_BENCH_SCHEMA_VERSION -- passed
/// in so this header does not depend on report.h -- and the ds / scheme
/// identity); closed-loop trials ignore both.
template <class Shape, class DS, class Mgr>
trial_result run_timed_trial(DS& ds, Mgr& mgr, const workload_config& cfg,
                             int schema_version = 0,
                             const json& meta = json::object()) {
    const serve_config& sv = cfg.serve;
    trial_result res;
    mgr.stats().clear();
    assert(schedule_valid(cfg.phases) && "run_trial: invalid phase schedule");
    assert(cfg.insert_pct + cfg.delete_pct + cfg.rq_pct <= 100 &&
           "run_trial: op mix exceeds 100%");
    // Phased runs use each phase's insert/delete split with the global
    // rq_pct, so every phase must leave room for the range-query share --
    // otherwise the rq branch would be silently unreachable in that phase.
    for (const phase_spec& ph : cfg.phases) {
        (void)ph;
        assert(ph.insert_pct + ph.delete_pct + cfg.rq_pct <= 100 &&
               "run_trial: a phase's mix leaves no room for rq_pct");
    }

    // Serve-mode switches; all off in a closed-loop trial.
    const double per_thread_rate =
        sv.enabled && sv.ops_per_sec > 0
            ? static_cast<double>(sv.ops_per_sec) / cfg.num_threads
            : 0.0;
    const bool churn =
        sv.enabled && sv.churn_period_ms > 0 && sv.churn_threads > 0;
    const long long leak_every = sv.enabled ? sv.canary_leak_every : 0;
    std::atomic<std::uint64_t> churn_gen{0};
    // Written only by worker 0, read by the control thread after join.
    long long canary_leaks = 0;

    // Serve mode's watch. The event trace is armed before the prefill, so
    // the rings see every reclamation event of the trial; the streamer
    // (snapshots + event drains + the leak monitor, on its own sampler
    // thread) starts with the workers. Every snapshot is augmented with
    // serve-side gauges the sampler can read race-free (atomics only).
    std::optional<obs::snapshot_streamer> streamer;
    json header = json::object();
    if (sv.enabled) {
        assert(sv.snapshot.snapshot_ms > 0 && sv.ring_capacity > 0 &&
               "run_trial: serve mode needs a positive snapshot period "
               "and ring capacity");
        obs::g_event_trace.enable(
            cfg.num_threads, static_cast<std::size_t>(sv.ring_capacity));
        res.serve.ran = true;
        res.serve.target_ops_per_sec = static_cast<double>(sv.ops_per_sec);
        streamer.emplace(sv.snapshot, &mgr.stats());
        streamer->set_augment([&churn_gen, &sv](json* snap) {
            snap->set("churn_waves",
                      static_cast<long long>(
                          churn_gen.load(std::memory_order_relaxed)));
            snap->set("target_ops_per_sec", sv.ops_per_sec);
        });
        if (meta.is_object()) {
            for (const auto& [k, v] : meta.members()) header.set(k, v);
        }
        header.set("mode", std::string("serve"));
        header.set("target_ops_per_sec", sv.ops_per_sec);
        header.set("churn_period_ms", sv.churn_period_ms);
        header.set("churn_threads", sv.churn_threads);
        header.set("canary_leak_every", sv.canary_leak_every);
        header.set("threads", cfg.num_threads);
    }

    // Scenario-engine state: the shared key distribution and the current
    // schedule phase. Workers read both with relaxed loads; only the
    // control thread (below) writes them, on its clock ticks.
    key_dist_shared dist(cfg.dist, cfg.key_range);
    const std::size_t num_phases =
        cfg.phases.empty() ? 1 : cfg.phases.size();
    std::atomic<int> phase_idx{0};

    if (cfg.prefill) {
        // Scoped registration: tid 0 must be free again for worker 0.
        auto h0 = mgr.register_thread(0);
        res.prefill_size = Shape::prefill(ds, mgr.access(h0), cfg);
    } else {
        // Baseline for the size invariant when the structure is reused
        // across trials (or deliberately started non-empty).
        res.prefill_size = ds.size_slow();
    }

    std::atomic<bool> start{false};
    std::atomic<bool> stop{false};
    spin_barrier ready(static_cast<std::uint32_t>(cfg.num_threads) + 1);
    spin_barrier done(static_cast<std::uint32_t>(cfg.num_threads) + 1);

    std::vector<workload_detail::per_thread> stats(
        static_cast<std::size_t>(cfg.num_threads));
    for (auto& s : stats) s.phase_ops.assign(num_phases, 0);

    // Per-thread latency recorders, cache-line padded like the counter
    // blocks. Workers write their own recorder only; the control thread
    // reads them concurrently (relaxed histogram loads -- a mid-phase
    // snapshot may trail by an op, which a per-phase delta tolerates).
    std::vector<padded<op_latency_recorder>> recorders(
        static_cast<std::size_t>(cfg.num_threads));
    for (auto& r : recorders) r->set_sample_every(cfg.lat_sample);

    // The worker body is compiled twice, once per `serving` tag
    // (std::true_type / std::false_type), so the serve-mode checks cost
    // the closed-loop hot path nothing.
    const auto worker = [&](int t, auto serving) {
        prng rng(cfg.seed * 1000003ULL + static_cast<std::uint64_t>(t));
        per_thread& mine = stats[static_cast<std::size_t>(t)];
        op_latency_recorder& rec = *recorders[static_cast<std::size_t>(t)];
        const bool churner = churn && t >= cfg.num_threads - sv.churn_threads;
        stopwatch pace;
        bool first = true;
        bool stopped = false;
        // One iteration per registration scope; only churners take a second
        // one. Registration applies the placement policy (compact/scatter
        // pinning) before the worker touches any memory, so first-touch
        // pages and arena homes land on the pinned socket. A churner falls
        // out of the op loop on a generation change, its handle deregisters
        // (DEBRA+ drains its in-flight neutralization signals inside deinit,
        // so no further barrier is needed), and it re-registers at once.
        while (!stopped) {
            auto handle = mgr.register_thread(t, cfg.pin);
            auto acc = mgr.access(handle);
            if (first) {
                first = false;
                ready.arrive_and_wait();
                while (!start.load(std::memory_order_acquire)) {
                    std::this_thread::yield();
                }
                pace.reset();  // token bucket accrues from trial start
            }
            if (t == cfg.stall_tid) {
                // Epoch-blocking straggler (see workload_config::stall_tid).
                while (!stop.load(std::memory_order_acquire)) {
                    acc.run_guarded(
                        [&] {
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(cfg.stall_ms));
                            return true;
                        },
                        [] { return true; });
                    ++mine.ops;
                }
            }
            const std::uint64_t my_gen =
                churn_gen.load(std::memory_order_acquire);
            while (!stop.load(std::memory_order_acquire)) {
                // Closed loop: one op per stop check. Paced: catch up on the
                // arrival curve in bursts of at most SERVE_BATCH, and idle
                // briefly (open loop) when ahead of it.
                long long batch = 1;
                if constexpr (decltype(serving)::value) {
                    if (churner &&
                        churn_gen.load(std::memory_order_relaxed) != my_gen) {
                        break;  // deregister and come back
                    }
                    if (per_thread_rate > 0) {
                        batch = std::min(
                            SERVE_BATCH,
                            static_cast<long long>(pace.elapsed_seconds() *
                                                   per_thread_rate) -
                                mine.ops);
                        if (batch <= 0) {
                            std::this_thread::sleep_for(
                                std::chrono::microseconds(100));
                            continue;
                        }
                    }
                }
                for (long long i = 0; i < batch; ++i) {
                    int ins_pct = cfg.insert_pct;
                    int del_pct = cfg.delete_pct;
                    int pause_us = 0;
                    const int pi = phase_idx.load(std::memory_order_relaxed);
                    if (!cfg.phases.empty()) {
                        const phase_spec& ph =
                            cfg.phases[static_cast<std::size_t>(pi)];
                        ins_pct = ph.insert_pct;
                        del_pct = ph.delete_pct;
                        pause_us = ph.pause_us;
                    }
                    Shape::do_op(ds, acc, cfg, dist, rng, ins_pct, del_pct,
                                 mine, rec.arm() ? &rec : nullptr);
                    ++mine.ops;
                    ++mine.phase_ops[static_cast<std::size_t>(pi)];
                    if constexpr (decltype(serving)::value) {
                        if (t == 0 && leak_every > 0 &&
                            mine.ops % leak_every == 0) {
                            // Deliberate leak: retire accounting without a
                            // matching pool hand-back. The monitor must trip.
                            mgr.leak_retired_record(0);
                            ++canary_leaks;
                        }
                    }
                    if (pause_us > 0) {
                        // Bursty phase: think time between operations.
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(pause_us));
                    }
                }
            }
            // Still registered: deregistration stays outside the timed
            // window.
            stopped = stop.load(std::memory_order_acquire);
            if (stopped) done.arrive_and_wait();
        }
    };
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(cfg.num_threads));
    for (int t = 0; t < cfg.num_threads; ++t) {
        threads.emplace_back([&worker, &sv, t] {
            if (sv.enabled) {
                worker(t, std::true_type{});
            } else {
                worker(t, std::false_type{});
            }
        });
    }

    ready.arrive_and_wait();
    if (streamer) streamer->start(schema_version, header);
    stopwatch timer;
    start.store(true, std::memory_order_release);
    const bool needs_ticks =
        !cfg.phases.empty() || churn ||
        (cfg.dist.kind == key_dist_kind::hotspot && cfg.dist.slide_ms > 0);
    if (!needs_ticks) {
        std::this_thread::sleep_for(std::chrono::milliseconds(cfg.trial_ms));
    } else {
        // Control loop: 1ms clock ticks publish the current phase, slide
        // the hotspot window and fire churn waves; phase transitions
        // snapshot the reclamation counters (per-phase metric harvest).
        // Workers never read the clock; the streamer samples on its own.
        int last_phase = 0;
        long long next_churn_ms = sv.churn_period_ms;
        lat_summary prev_lat;
        // Closes the phase occurrence that just ended: a counter snapshot
        // plus the latency delta of the cumulative merge (all threads and
        // op kinds) against the previous boundary's. max_ns is reported
        // cumulatively (a max cannot be differenced).
        const auto close_phase = [&](long long at_ms) {
            phase_metric m = snapshot_counters(mgr.stats(), last_phase, at_ms);
            lat_summary cur;
            for (auto& r : recorders) {
                for (int k = 0; k < N_OP_KINDS; ++k) {
                    cur.add(r->hist(static_cast<op_kind>(k)));
                }
            }
            const lat_summary d = lat_summary::delta(cur, prev_lat);
            m.lat_samples = d.count;
            m.lat_p50_ns = d.percentile(0.50);
            m.lat_p99_ns = d.percentile(0.99);
            m.lat_p999_ns = d.percentile(0.999);
            m.lat_max_ns = cur.max_ns;
            prev_lat = cur;
            res.phase_metrics.push_back(m);
        };
        for (;;) {
            const long long elapsed_ms =
                static_cast<long long>(timer.elapsed_seconds() * 1000.0);
            if (elapsed_ms >= cfg.trial_ms) break;
            const int now_phase = phase_at(cfg.phases, elapsed_ms);
            if (!cfg.phases.empty() && now_phase != last_phase) {
                close_phase(elapsed_ms);
                last_phase = now_phase;
            }
            phase_idx.store(now_phase, std::memory_order_relaxed);
            dist.on_tick(elapsed_ms);
            if (churn && elapsed_ms >= next_churn_ms) {
                churn_gen.fetch_add(1, std::memory_order_acq_rel);
                next_churn_ms += sv.churn_period_ms;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (!cfg.phases.empty()) {
            // Close the last phase occurrence at trial end.
            close_phase(
                static_cast<long long>(timer.elapsed_seconds() * 1000.0));
        }
    }
    stop.store(true, std::memory_order_release);
    done.arrive_and_wait();
    res.seconds = timer.elapsed_seconds();
    for (auto& th : threads) th.join();
    if (streamer) {
        // Final drain after workers quiesced (no producer is mid-emit),
        // then disarm; the verdict is read below.
        streamer->stop();
        obs::g_event_trace.disable();
    }

    long long net = 0;
    res.phase_ops.assign(num_phases, 0);
    for (const auto& s : stats) {
        for (std::size_t p = 0; p < num_phases; ++p) {
            res.phase_ops[p] += s.phase_ops[p];
        }
        res.total_ops += s.ops;
        res.finds += s.finds;
        res.inserts_attempted += s.ins_att;
        res.inserts_succeeded += s.ins_ok;
        res.deletes_attempted += s.del_att;
        res.deletes_succeeded += s.del_ok;
        res.range_queries += s.rqs;
        res.range_keys += s.rq_keys;
        net += s.net_keys;
    }
    res.expected_final_size = res.prefill_size + net;
    res.final_size = ds.size_slow();

    const debug_stats& d = mgr.stats();
    res.counters = d.totals();
    res.limbo_records = mgr.total_limbo_all_types();
    res.allocated_bytes = mgr.total_allocated_bytes();

    // Latency harvest: workers have joined, so the recorder histograms are
    // stable; merge losslessly per op kind, then across kinds.
    res.latency.sample_every = cfg.lat_sample;
    res.latency.clock = lat_clock::source_name();
    for (int k = 0; k < N_OP_KINDS; ++k) {
        lat_summary& kind = res.latency.ops[static_cast<std::size_t>(k)];
        for (auto& r : recorders) kind.add(r->hist(static_cast<op_kind>(k)));
        res.latency.total.add(kind);
    }
    for (int s = 0; s < static_cast<int>(stall_site::COUNT); ++s) {
        res.latency.stalls[static_cast<std::size_t>(s)] =
            d.stall_summary(static_cast<stall_site>(s));
    }

    if (streamer) {
        res.serve.snapshots = streamer->snapshots();
        res.serve.monitor_violations = streamer->violations();
        res.serve.first_violation_snapshot =
            streamer->first_violation_sample();
        res.serve.achieved_ops_per_sec =
            res.seconds > 0 ? res.total_ops / res.seconds : 0.0;
        res.serve.churn_cycles = static_cast<long long>(
            churn_gen.load(std::memory_order_relaxed));
        res.serve.canary_leaks = canary_leaks;
        res.serve.events_drained = streamer->events_drained();
        res.serve.events_dropped = streamer->events_dropped();
    }
    return res;
}

}  // namespace workload_detail

/// Runs one timed trial of the paper's workload (plus optional range-query
/// share) on an ordered_set_like structure `ds`, whose records are managed
/// by `mgr`. Returns throughput and reclamation metrics. Thread
/// registration goes through the manager's RAII handles; worker `t` claims
/// tid `t` so per-thread metrics stay tid-indexed.
template <class DS, class Mgr>
trial_result run_trial(DS& ds, Mgr& mgr, const workload_config& cfg) {
    return workload_detail::run_timed_trial<workload_detail::set_shape>(
        ds, mgr, cfg);
}

/// Runs one timed trial of the push/pop workload on a stack_queue_like
/// structure. The mix's insert_pct is the push share; every other
/// operation is a try_pop. The size invariant counts elements instead of
/// keys: prefill + pushes - successful pops == final size.
template <class DS, class Mgr>
trial_result run_pushpop_trial(DS& ds, Mgr& mgr,
                               const workload_config& cfg) {
    return workload_detail::run_timed_trial<workload_detail::pushpop_shape>(
        ds, mgr, cfg);
}

}  // namespace smr::harness
