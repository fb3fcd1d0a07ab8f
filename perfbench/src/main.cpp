// perfbench -- interleaved scheme arms on the Ellen BST, measured against
// the no-reclamation arm in the same rounds.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One process runs one workload. It builds several fresh sets of arms
// (one record_manager + ellen_bst per arm, all on the paper's Experiment-2
// memory policy: bump allocator + shared pool), prefills each to half its
// key range, and runs rounds. In a round the same worker threads run every
// arm for one equal window on that arm's warm tree; the threads register
// once per session with every arm's manager and park between windows, and
// the arm order rotates every round. Timing metrics are ratios to the
// `none` arm in the same rounds, which cancels common-mode swings in
// machine speed; memory metrics are counts read through the managers'
// public stats() and total_allocated_bytes().
//
// --trace 1 builds the arms over traced_mgr (traced_mgr.h) and runs every
// arm twice per round, once with layer sampling off and once on, to price
// each layer and the sampling itself. Metric names, units and the layer ->
// end-to-end map are in perfbench/METRICS.md.
//
// Output: one JSON object on the last stdout line (run.py turns it into the
// benchmark result). Exit status 1 when a correctness check fails.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <malloc.h>

#include "ds/ellen_bst.h"
#include "harness/json.h"
#include "reclaim/reclaimer_debra.h"
#include "reclaim/reclaimer_debra_plus.h"
#include "reclaim/reclaimer_hp.h"
#include "reclaim/reclaimer_none.h"
#include "recordmgr/record_manager.h"
#include "traced_mgr.h"
#include "util/latency_hist.h"
#include "util/prng.h"

namespace perfbench {

using key_t = long long;
using val_t = long long;
using node_t = smr::ds::bst_node<key_t, val_t>;
using info_t = smr::ds::bst_info<key_t, val_t>;
template <class Scheme>
using mgr_for = smr::record_manager<Scheme, smr::alloc_bump, smr::pool_shared,
                                    node_t, info_t>;
using clk = std::chrono::steady_clock;

// ---- run shape -------------------------------------------------------------

/// Small arm sets are rebuilt until this much setup has been timed (at
/// most SETUP_MAX_REPS builds per session), so setup_s is a median of many.
constexpr double SETUP_MIN_S = 0.1;
constexpr int SETUP_MAX_REPS = 16;
/// Quiescent pause of the straggler after each neutralization.
constexpr int STRAGGLER_REST_MS = 1;
/// Limbo (retired - pooled) is sampled this often during each window.
constexpr int LIMBO_SAMPLE_MS = 1;
/// Target window length; the round count is derived from --seconds.
constexpr double WINDOW_TARGET_S = 0.1;
/// Every N-th operation of each worker is timed (op-latency p99).
constexpr std::uint32_t LAT_SAMPLE_EVERY = 8;
/// Traced windows: every N-th operation of each worker is followed by one
/// probe contains and one probe range query, so the ds read-path layers
/// are priced on every workload.
constexpr long long PROBE_EVERY = 1024;
constexpr long long PROBE_RQ_LEN = 100;
constexpr int RQ_MAX = 128;

struct workload_spec {
    const char* name;
    long long key_range;
    int insert_pct;
    int delete_pct;
    int rq_pct;  // the rest of the mix is contains
    long long rq_len;
    int workers;     // threads issuing operations
    bool straggler;  // one more thread stalling inside run_guarded
    /// Fresh arm sets per run. Memory metrics are maxima within a session,
    /// so small trees (cheap to build) take more sessions and report the
    /// median; the large tree's setup cost limits it to three. update_heavy
    /// takes the most: a descheduled DEBRA worker stalls the epoch and
    /// lifts that session's footprint, and the median must outvote it.
    int sessions;
};

constexpr workload_spec WORKLOADS[] = {
    {"update_heavy", 10000, 50, 50, 0, 100, 3, false, 16},
    {"read_scan_large", 1000000, 5, 5, 2, 100, 3, false, 3},
    {"stalled_thread", 10000, 50, 50, 0, 100, 2, true, 8},
};

/// Arm names, in index order. Index 0 is the baseline every timing metric
/// is divided by.
constexpr const char* ARM_NAMES[] = {"none", "debra", "debra_aa", "debra_plus",
                                     "hp"};
constexpr int N_ARMS = 5;
constexpr int NONE = 0, DEBRA = 1, DEBRA_AA = 2, DEBRA_PLUS = 3, HP = 4;
/// Arms whose windows the straggler stalls in. DEBRA has no bound under a
/// stalled process -- its limbo grows with every operation until the
/// straggler moves -- so its stalled figures would measure the window
/// length, not the scheme; its stalled_thread windows run unstalled and
/// serve as the two-worker control.
constexpr bool STALLED[N_ARMS] = {true, false, false, true, true};

enum mode : int { UNTRACED = 0, TRACED = 1 };

// ---- per-arm state shared with the control thread --------------------------

/// Sampled op latencies of one worker in one mode.
struct op_hists {
    smr::lat_hist all, update, contains, rq;
};

/// What one worker did in one window.
struct worker_tally {
    long long ops = 0;
    long long net_keys = 0;
    long long rq_checked = 0;
    long long rq_bad = 0;
    double secs = 0;
};

struct arm_counters {
    std::uint64_t retired = 0, pooled = 0, allocated = 0, reused = 0;
    std::uint64_t epochs = 0, hp_scans = 0, neutralize = 0, restarts = 0;
    long long bytes = 0;

    arm_counters operator-(const arm_counters& o) const {
        arm_counters d;
        d.retired = retired - o.retired;
        d.pooled = pooled - o.pooled;
        d.allocated = allocated - o.allocated;
        d.reused = reused - o.reused;
        d.epochs = epochs - o.epochs;
        d.hp_scans = hp_scans - o.hp_scans;
        d.neutralize = neutralize - o.neutralize;
        d.restarts = restarts - o.restarts;
        d.bytes = bytes - o.bytes;
        return d;
    }
    void operator+=(const arm_counters& o) {
        retired += o.retired;
        pooled += o.pooled;
        allocated += o.allocated;
        reused += o.reused;
        epochs += o.epochs;
        hp_scans += o.hp_scans;
        neutralize += o.neutralize;
        restarts += o.restarts;
        bytes += o.bytes;
    }
};

/// Type-erased arm: the control thread dispatches once per window; the
/// per-operation loop runs inside the typed work() below.
class arm_base {
  public:
    virtual ~arm_base() = default;
    virtual long long prefill(long long target, std::uint64_t seed) = 0;
    virtual void attach(int tid) = 0;  // on the worker thread
    virtual void detach(int tid) = 0;  // on the worker thread
    virtual worker_tally work(int tid, int m, const std::atomic<bool>& stop) = 0;
    virtual void straggle(int tid, const std::atomic<bool>& stop) = 0;
    virtual arm_counters counters() = 0;
    /// Records retired but not yet returned to the pool.
    virtual long long limbo() = 0;
    virtual long long size() = 0;
    virtual bool valid() = 0;
    virtual void set_sampling(bool on) = 0;
    /// Layer timings of `tid` (traced arms only).
    virtual const thread_timing* timing(int tid) const = 0;

    std::array<std::array<smr::padded<op_hists>, MAX_WORKERS>, 2> hists{};
};

/// Range-query delivery buffer. Under DEBRA+ the visitor runs inside a
/// run_guarded body, so it writes only lock-free atomics (see
/// ellen_bst::range_query's visitor contract).
struct rq_buffer {
    std::array<std::atomic<long long>, RQ_MAX> keys{};
    std::atomic<int> n{0};
    std::atomic<bool> overflow{false};
};

struct no_wrap {
    template <class M>
    explicit no_wrap(M&) {}
};

template <class Scheme, bool Traced>
class arm final : public arm_base {
    using mgr_t = mgr_for<Scheme>;
    using ds_mgr_t = std::conditional_t<Traced, traced_mgr<mgr_t>, mgr_t>;
    using wrap_t = std::conditional_t<Traced, traced_mgr<mgr_t>, no_wrap>;
    using tree_t = smr::ds::ellen_bst<key_t, val_t, ds_mgr_t>;
    using acc_t = typename ds_mgr_t::accessor_t;

  public:
    arm(const workload_spec& w, int threads, std::uint64_t op_seed)
        : w_(w), mgr_(threads), wrap_(mgr_), tree_(ds_mgr()) {
        for (int t = 0; t < MAX_WORKERS; ++t) {
            rng_[static_cast<std::size_t>(t)].value =
                smr::prng(op_seed * 1000003ULL + static_cast<std::uint64_t>(t));
        }
    }

    long long prefill(long long target, std::uint64_t seed) override {
        auto h = mgr_.register_thread(0);
        acc_t acc(ds_mgr(), 0);
        smr::prng rng(seed);
        long long size = 0;
        while (size < target) {
            const auto key = static_cast<key_t>(
                rng.next(static_cast<std::uint64_t>(w_.key_range)));
            if (tree_.insert(acc, key, key)) ++size;
        }
        return size;
    }

    void attach(int tid) override { handles_[tid].emplace(mgr_, tid); }
    void detach(int tid) override { handles_[tid].reset(); }

    worker_tally work(int tid, int m, const std::atomic<bool>& stop) override {
        acc_t acc(ds_mgr(), tid);
        smr::prng& rng = *rng_[static_cast<std::size_t>(tid)];
        op_hists& h = *hists[static_cast<std::size_t>(m)]
                           [static_cast<std::size_t>(tid)];
        std::uint32_t& tick = *lat_tick_[static_cast<std::size_t>(tid)];
        rq_buffer& buf = *rq_[static_cast<std::size_t>(tid)];
        worker_tally out;
        const auto t0 = clk::now();
        // At least one operation, so a worker scheduled only after the
        // window closed still reports a rate instead of an empty window.
        do {
            const bool sampled = ++tick % LAT_SAMPLE_EVERY == 0;
            one_op(acc, rng, h, buf, sampled, out);
            ++out.ops;
            if (m == TRACED && out.ops % PROBE_EVERY == 0) {
                probe(acc, rng, h, buf, out);
            }
        } while (!stop.load(std::memory_order_relaxed));
        out.secs = std::chrono::duration<double>(clk::now() - t0).count();
        return out;
    }

    /// Stays non-quiescent inside one run_guarded for the whole window,
    /// like a preempted process holding an operation open. A DEBRA+
    /// neutralization ends the body; the straggler then rests quiescent for
    /// STRAGGLER_REST_MS before its next stalled operation, as a descheduled
    /// process would, instead of re-blocking the epoch at once (which would
    /// make a neutralization storm of ~0.5% of all operations).
    void straggle(int tid, const std::atomic<bool>& stop) override {
        acc_t acc(ds_mgr(), tid);
        while (!stop.load(std::memory_order_acquire)) {
            acc.run_guarded(
                [&stop] {
                    while (!stop.load(std::memory_order_acquire)) {
                        std::this_thread::sleep_for(std::chrono::milliseconds(1));
                    }
                    return true;
                },
                [] { return true; });
            std::this_thread::sleep_for(
                std::chrono::milliseconds(STRAGGLER_REST_MS));
        }
    }

    arm_counters counters() override {
        const smr::debug_stats& d = mgr_.stats();
        arm_counters c;
        c.retired = d.total(smr::stat::records_retired);
        c.pooled = d.total(smr::stat::records_pooled);
        c.allocated = d.total(smr::stat::records_allocated);
        c.reused = d.total(smr::stat::records_reused);
        c.epochs = d.total(smr::stat::epochs_advanced);
        c.hp_scans = d.total(smr::stat::hp_scans);
        c.neutralize = d.total(smr::stat::neutralize_signals_sent);
        c.restarts = d.total(smr::stat::op_restarts);
        c.bytes = mgr_.total_allocated_bytes();
        return c;
    }

    long long limbo() override {
        const smr::debug_stats& d = mgr_.stats();
        return static_cast<long long>(d.total(smr::stat::records_retired)) -
               static_cast<long long>(d.total(smr::stat::records_pooled));
    }

    long long size() override { return tree_.size_slow(); }
    bool valid() override { return tree_.validate_structure(); }

    void set_sampling(bool on) override {
        if constexpr (Traced) wrap_.set_sampling(on);
    }
    const thread_timing* timing(int tid) const override {
        if constexpr (Traced) {
            return &wrap_.timing(tid);
        } else {
            (void)tid;
            return nullptr;
        }
    }

  private:
    ds_mgr_t& ds_mgr() {
        if constexpr (Traced) {
            return wrap_;
        } else {
            return mgr_;
        }
    }

    void one_op(acc_t acc, smr::prng& rng, op_hists& h, rq_buffer& buf,
                bool sampled, worker_tally& out) {
        const auto key = static_cast<key_t>(
            rng.next(static_cast<std::uint64_t>(w_.key_range)));
        const auto dice = static_cast<int>(rng.next(100));
        const std::uint64_t t0 = sampled ? smr::lat_clock::now() : 0;
        smr::lat_hist* kind;
        if (dice < w_.insert_pct) {
            if (tree_.insert(acc, key, key)) ++out.net_keys;
            kind = &h.update;
        } else if (dice < w_.insert_pct + w_.delete_pct) {
            if (tree_.erase(acc, key).has_value()) --out.net_keys;
            kind = &h.update;
        } else if (dice < w_.insert_pct + w_.delete_pct + w_.rq_pct) {
            checked_range_query(acc, buf, key, w_.rq_len, out);
            kind = &h.rq;
        } else {
            (void)tree_.contains(acc, key);
            kind = &h.contains;
        }
        if (sampled) {
            const std::uint64_t ns =
                smr::lat_clock::to_nanos(smr::lat_clock::now() - t0);
            h.all.record(ns);
            kind->record(ns);
        }
    }

    /// Traced windows only: one timed contains and one timed range query,
    /// outside the workload's own mix.
    void probe(acc_t acc, smr::prng& rng, op_hists& h, rq_buffer& buf,
               worker_tally& out) {
        const auto key = static_cast<key_t>(
            rng.next(static_cast<std::uint64_t>(w_.key_range)));
        std::uint64_t t0 = smr::lat_clock::now();
        (void)tree_.contains(acc, key);
        h.contains.record(smr::lat_clock::to_nanos(smr::lat_clock::now() - t0));
        t0 = smr::lat_clock::now();
        checked_range_query(acc, buf, key, PROBE_RQ_LEN, out);
        h.rq.record(smr::lat_clock::to_nanos(smr::lat_clock::now() - t0));
        out.ops += 2;
    }

    /// Range query whose delivered keys must lie in [lo, hi], strictly
    /// ascending (hence duplicate-free), and -- where delivery counting is
    /// exact, i.e. without neutralization -- match the returned count.
    void checked_range_query(acc_t acc, rq_buffer& buf, key_t lo,
                             long long len, worker_tally& out) {
        key_t hi = lo + len - 1;
        if (hi >= w_.key_range) hi = w_.key_range - 1;
        buf.n.store(0, std::memory_order_relaxed);
        buf.overflow.store(false, std::memory_order_relaxed);
        const long long returned = tree_.range_query(
            acc, lo, hi, [&buf](const key_t& k, const val_t&) {
                const int i = buf.n.load(std::memory_order_relaxed);
                if (i >= RQ_MAX) {
                    buf.overflow.store(true, std::memory_order_relaxed);
                    return false;
                }
                buf.keys[static_cast<std::size_t>(i)].store(
                    k, std::memory_order_relaxed);
                buf.n.store(i + 1, std::memory_order_relaxed);
                return true;
            });
        const int n = buf.n.load(std::memory_order_relaxed);
        bool ok = !buf.overflow.load(std::memory_order_relaxed);
        key_t prev = 0;
        for (int i = 0; i < n && ok; ++i) {
            const key_t k =
                buf.keys[static_cast<std::size_t>(i)].load(
                    std::memory_order_relaxed);
            ok = k >= lo && k <= hi && (i == 0 || k > prev);
            prev = k;
        }
        if constexpr (!mgr_t::supports_crash_recovery) {
            ok = ok && returned == n;
        } else {
            ok = ok && returned <= n;
        }
        ++out.rq_checked;
        if (!ok) ++out.rq_bad;
    }

    const workload_spec& w_;
    mgr_t mgr_;
    wrap_t wrap_;
    tree_t tree_;
    std::array<std::optional<typename mgr_t::handle_t>, MAX_WORKERS> handles_;
    std::array<smr::padded<smr::prng>, MAX_WORKERS> rng_{};
    std::array<smr::padded<std::uint32_t>, MAX_WORKERS> lat_tick_{};
    std::array<smr::padded<rq_buffer>, MAX_WORKERS> rq_{};
};

template <bool Traced>
std::unique_ptr<arm_base> make_arm(int idx, const workload_spec& w,
                                   int threads, std::uint64_t op_seed) {
    namespace rc = smr::reclaim;
    switch (idx) {
        case 0:
            return std::make_unique<arm<rc::reclaim_none, Traced>>(w, threads,
                                                                   op_seed);
        case 1:
        case 2:
            return std::make_unique<arm<rc::reclaim_debra, Traced>>(
                w, threads, op_seed);
        case 3:
            return std::make_unique<arm<rc::reclaim_debra_plus, Traced>>(
                w, threads, op_seed);
        default:
            return std::make_unique<arm<rc::reclaim_hp, Traced>>(w, threads,
                                                                 op_seed);
    }
}

// ---- statistics helpers ----------------------------------------------------

/// Quantile of a sample by linear interpolation (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto i = static_cast<std::size_t>(pos);
    const double f = pos - static_cast<double>(i);
    return i + 1 < v.size() ? v[i] * (1 - f) + v[i + 1] * f : v[i];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Median over rounds of xa[i] / xb[i], skipping rounds where xb[i] is 0.
/// Entry i of both vectors comes from the same round.
double paired_median(const std::vector<double>& xa,
                     const std::vector<double>& xb) {
    std::vector<double> v;
    for (std::size_t i = 0; i < xa.size() && i < xb.size(); ++i) {
        if (xb[i] > 0) v.push_back(xa[i] / xb[i]);
    }
    return median(std::move(v));
}

/// Mean and median cost of an empty lat_clock span on this thread, in ns:
/// subtracted from every layer timing so a reading prices the call alone.
struct clock_cost {
    double mean_ns = 0;
    double median_ns = 0;
};

clock_cost measure_clock_cost() {
    constexpr int N = 200000;
    std::vector<double> v;
    v.reserve(N);
    double sum = 0;
    for (int i = 0; i < N; ++i) {
        const std::uint64_t t0 = smr::lat_clock::now();
        const std::uint64_t t1 = smr::lat_clock::now();
        const double ns =
            static_cast<double>(smr::lat_clock::to_nanos(t1 - t0));
        v.push_back(ns);
        sum += ns;
    }
    clock_cost c;
    c.mean_ns = sum / N;
    c.median_ns = median(std::move(v));
    return c;
}

/// Percentile of a summary as a double (0 when it holds no samples).
double pct(const smr::lat_summary& s, double q) {
    return static_cast<double>(s.percentile(q));
}

// ---- the run ---------------------------------------------------------------

struct options {
    const workload_spec* workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/// Control block the workers poll between windows.
struct session_ctl {
    std::atomic<std::uint64_t> gen{0};
    std::atomic<int> arm{0};
    std::atomic<int> mode{0};
    std::atomic<bool> exit{false};
    std::atomic<bool> stop{false};
    std::atomic<int> done{0};
    std::vector<worker_tally> tally;
};

struct site_acc {
    smr::lat_summary hist;
    double sum_ns = 0;
    double count = 0;
};

/// Everything gathered for one arm across sessions. Per-round vectors are
/// indexed by global round, so arm a's entry i pairs with none's entry i.
struct arm_acc {
    std::array<std::vector<double>, 2> rate;  // [mode][round] ops/s
    std::array<std::vector<double>, 2> p99;   // [mode][round] ns
    std::array<smr::lat_summary, 2> all, update, contains, rq;  // [mode]
    std::vector<double> limbo;  // retired - pooled, sampled in windows
    double limbo_end_max = 0;
    std::vector<double> footprint_mib;  // per session
    arm_counters work;                  // counter deltas over all windows
    std::array<long long, 2> ops{};     // [mode]
    std::array<site_acc, N_SITES> sites{};
    double protect_calls = 0;
};

using smr::harness::json;

/// Adds {"value": v, "unit": unit} under `name`, the shape run.py reads.
/// A non-finite value is written as null, which run.py rejects.
void add(json& obj, const std::string& name, double v, const char* unit) {
    json m = json::object();
    m.set("value", v);
    m.set("unit", unit);
    obj.set(name, std::move(m));
}

template <bool Traced>
int run(const options& o) {
    const workload_spec& w = *o.workload;
    const int modes = Traced ? 2 : 1;
    const int threads = w.workers + (w.straggler ? 1 : 0);
    const int per_round = N_ARMS * modes;
    const int rounds = std::max(
        2, static_cast<int>(std::lround(
               o.seconds / (w.sessions * per_round * WINDOW_TARGET_S))));
    const double window_s = o.seconds / (w.sessions * rounds * per_round);
    const auto window = std::chrono::duration_cast<clk::duration>(
        std::chrono::duration<double>(window_s));

    std::array<arm_acc, N_ARMS> acc;
    std::vector<double> setup_s, overrun_us;
    long long attempted = 0, failed = 0, rq_checked = 0;

    for (int s = 0; s < w.sessions; ++s) {
        const std::uint64_t session_seed = smr::prng::splitmix64(
            o.seed * 7919ULL + static_cast<std::uint64_t>(s));

        // ---- setup: build + prefill every arm, in a rotated order. Small
        // trees build in milliseconds, so the set is rebuilt until
        // SETUP_MIN_S of samples exist; the last set is the one measured.
        std::array<std::unique_ptr<arm_base>, N_ARMS> arms;
        std::array<long long, N_ARMS> prefill{};
        double setup_spent = 0;
        for (int rep = 0; rep == 0 || (setup_spent < SETUP_MIN_S &&
                                       rep < SETUP_MAX_REPS);
             ++rep) {
            for (auto& a : arms) a.reset();
            const int off = static_cast<int>(
                (o.seed + static_cast<std::uint64_t>(s + rep)) % N_ARMS);
            const auto b0 = clk::now();
            for (int k = 0; k < N_ARMS; ++k) {
                const int a = (off + k) % N_ARMS;
                arms[a] = make_arm<Traced>(a, w, threads, session_seed);
                prefill[a] =
                    arms[a]->prefill(w.key_range / 2, session_seed ^ 0xabcdefULL);
            }
            const double t = std::chrono::duration<double>(clk::now() - b0).count();
            setup_s.push_back(t);
            setup_spent += t;
        }
        std::array<arm_counters, N_ARMS> base;
        for (int a = 0; a < N_ARMS; ++a) base[a] = arms[a]->counters();

        // ---- workers: register with every arm, then serve windows ----
        session_ctl ctl;
        ctl.tally.assign(threads, {});
        std::vector<std::thread> pool;
        for (int t = 0; t < threads; ++t) {
            const bool straggler = w.straggler && t == threads - 1;
            pool.emplace_back([&, t, straggler] {
                for (auto& a : arms) a->attach(t);
                std::uint64_t seen = 0;
                for (;;) {
                    std::uint64_t g;
                    while ((g = ctl.gen.load(std::memory_order_acquire)) == seen) {
                        std::this_thread::yield();
                    }
                    seen = g;
                    if (ctl.exit.load(std::memory_order_relaxed)) break;
                    arm_base& a = *arms[ctl.arm.load(std::memory_order_relaxed)];
                    if (straggler) {
                        if (STALLED[ctl.arm.load(std::memory_order_relaxed)]) {
                            a.straggle(t, ctl.stop);
                        } else {
                            while (!ctl.stop.load(std::memory_order_acquire)) {
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(1));
                            }
                        }
                    } else {
                        ctl.tally[t] = a.work(
                            t, ctl.mode.load(std::memory_order_relaxed), ctl.stop);
                    }
                    ctl.done.fetch_add(1, std::memory_order_acq_rel);
                }
                for (auto& a : arms) a->detach(t);
            });
        }

        std::array<long long, N_ARMS> net{};
        std::array<std::array<smr::lat_summary, 2>, N_ARMS> lat_prev{};
        for (int r = 0; r < rounds; ++r) {
            for (int k = 0; k < per_round; ++k) {
                const int a = (k / modes + r + s) % N_ARMS;
                const int m = modes == 1 ? UNTRACED : (k + r) % 2;
                arm_base& ar = *arms[a];
                arm_acc& aa = acc[a];
                ar.set_sampling(m == TRACED);
                ctl.stop.store(false, std::memory_order_relaxed);
                ctl.done.store(0, std::memory_order_relaxed);
                ctl.arm.store(a, std::memory_order_relaxed);
                ctl.mode.store(m, std::memory_order_relaxed);
                ctl.gen.fetch_add(1, std::memory_order_release);
                // The control thread sleeps through the window, waking
                // every LIMBO_SAMPLE_MS to sample the arm's limbo.
                const auto deadline = clk::now() + window;
                for (auto now = clk::now(); now < deadline; now = clk::now()) {
                    std::this_thread::sleep_for(std::min<clk::duration>(
                        deadline - now, std::chrono::milliseconds(LIMBO_SAMPLE_MS)));
                    aa.limbo.push_back(static_cast<double>(ar.limbo()));
                }
                const auto t_stop = clk::now();
                ctl.stop.store(true, std::memory_order_release);
                while (ctl.done.load(std::memory_order_acquire) < threads) {
                    std::this_thread::yield();
                }
                overrun_us.push_back(
                    std::chrono::duration<double, std::micro>(clk::now() - t_stop)
                        .count());
                aa.limbo_end_max =
                    std::max(aa.limbo_end_max, static_cast<double>(ar.limbo()));

                double rate = 0;
                smr::lat_summary lat;
                for (int t = 0; t < w.workers; ++t) {
                    const worker_tally& wt = ctl.tally[t];
                    rate += static_cast<double>(wt.ops) / wt.secs;
                    attempted += wt.ops;
                    aa.ops[m] += wt.ops;
                    net[a] += wt.net_keys;
                    failed += wt.rq_bad;
                    rq_checked += wt.rq_checked;
                    lat.add(ar.hists[m][t]->all);
                }
                aa.rate[m].push_back(rate);
                aa.p99[m].push_back(static_cast<double>(
                    smr::lat_summary::delta(lat, lat_prev[a][m]).percentile(0.99)));
                lat_prev[a][m] = lat;
            }
        }
        ctl.exit.store(true, std::memory_order_relaxed);
        ctl.gen.fetch_add(1, std::memory_order_release);
        for (auto& th : pool) th.join();

        // ---- correctness + harvest ----
        for (int a = 0; a < N_ARMS; ++a) {
            arm_base& ar = *arms[a];
            arm_acc& aa = acc[a];
            const long long expected = prefill[a] + net[a];
            const long long got = ar.size();
            const bool valid = ar.valid();
            ++attempted;
            if (got != expected || !valid) {
                ++failed;
                std::fprintf(stderr,
                             "perfbench: %s session %d: size %lld, expected "
                             "%lld (prefill + net inserts)%s\n",
                             ARM_NAMES[a], s, got, expected,
                             valid ? "" : ", structure invalid");
            }
            const arm_counters end = ar.counters();
            aa.work += end - base[a];
            aa.footprint_mib.push_back(static_cast<double>(end.bytes) /
                                       (1024.0 * 1024.0));
            for (int m = 0; m < modes; ++m) {
                for (int t = 0; t < w.workers; ++t) {
                    const op_hists& h = *ar.hists[m][t];
                    aa.all[m].add(h.all);
                    aa.update[m].add(h.update);
                    aa.contains[m].add(h.contains);
                    aa.rq[m].add(h.rq);
                }
            }
            for (int t = 0; t < w.workers; ++t) {
                const thread_timing* tt = ar.timing(t);
                if (tt == nullptr) continue;
                for (int si = 0; si < N_SITES; ++si) {
                    site_acc& sa = aa.sites[si];
                    sa.hist.add(tt->sites[si].hist);
                    sa.sum_ns += static_cast<double>(tt->sites[si].sum_ns);
                    sa.count += static_cast<double>(tt->sites[si].count);
                }
                aa.protect_calls += static_cast<double>(tt->protect_calls);
            }
        }
    }

    // ---- metrics ----
    json e2e = json::object(), layer = json::object(), samples = json::object();
    for (int a : {DEBRA, DEBRA_PLUS, HP}) {
        const std::string n = ARM_NAMES[a];
        const arm_acc& aa = acc[a];
        add(e2e, n + ".rel_tput",
                   paired_median(aa.rate[UNTRACED], acc[NONE].rate[UNTRACED]), "ratio");
        add(e2e, n + ".p99_rel",
                   paired_median(aa.p99[UNTRACED], acc[NONE].p99[UNTRACED]), "ratio");
        add(e2e, n + ".limbo_peak", quantile(aa.limbo, 0.99), "records");
        add(e2e, n + ".footprint_mib", median(aa.footprint_mib), "MiB");
        samples.set(n + ".p99_rel", aa.all[UNTRACED].count);
        // The literal peaks, ungated: a descheduled worker spikes them (see
        // METRICS.md, "Noise evidence"), which is why limbo_peak is a p99.
        add(layer, n + ".limbo_end_max", aa.limbo_end_max, "records");
        add(layer, n + ".limbo_max", quantile(aa.limbo, 1.0), "records");
    }
    samples.set("none.p99", acc[NONE].all[UNTRACED].count);
    add(e2e, "setup_s", median(setup_s), "s");
    add(layer, "harness.window_overrun_us", median(overrun_us), "us");
    add(layer, "aa.ratio",
                 paired_median(acc[DEBRA_AA].rate[UNTRACED], acc[DEBRA].rate[UNTRACED]),
                 "ratio");

    if (Traced) {
        const clock_cost cc = measure_clock_cost();
        add(layer, "trace.clock_cost_ns", cc.mean_ns, "ns");
        for (int a : {NONE, DEBRA, DEBRA_PLUS, HP}) {
            const std::string n = ARM_NAMES[a];
            const arm_acc& aa = acc[a];
            const double kops = static_cast<double>(aa.ops[0] + aa.ops[1]) / 1000.0;
            const auto per_kop = [kops](std::uint64_t c) {
                return static_cast<double>(c) / kops;
            };
            // Sampled span means/percentiles, net of the empty-span cost.
            const auto mean_site = [&](site st, double spans) {
                const site_acc& sa = aa.sites[static_cast<int>(st)];
                return sa.count > 0 ? sa.sum_ns / sa.count - spans * cc.mean_ns : 0.0;
            };
            const auto net_pct = [&](const smr::lat_summary& h, double q) {
                return pct(h, q) - cc.median_ns;
            };
            add(layer, n + ".ds.update_ns", net_pct(aa.update[TRACED], 0.5), "ns");
            add(layer, n + ".ds.update_p99_ns", net_pct(aa.update[TRACED], 0.99), "ns");
            add(layer, n + ".ds.contains_ns", net_pct(aa.contains[TRACED], 0.5), "ns");
            add(layer, n + ".ds.range_query_ns", net_pct(aa.rq[TRACED], 0.5), "ns");
            add(layer, n + ".ds.range_query_p99_ns", net_pct(aa.rq[TRACED], 0.99), "ns");
            add(layer, n + ".ds.restarts_per_kop", per_kop(aa.work.restarts), "1/kop");
            if (a == DEBRA || a == DEBRA_PLUS) {
                add(layer, n + ".recordmgr.bracket_ns", mean_site(site::bracket, 2), "ns");
                add(layer, n + ".reclaim.epochs_per_kop", per_kop(aa.work.epochs), "1/kop");
            }
            if (a == DEBRA_PLUS) {
                add(layer, n + ".reclaim.neutralize_per_kop",
                             per_kop(aa.work.neutralize), "1/kop");
            }
            if (a == HP) {
                add(layer, n + ".recordmgr.protect_ns", mean_site(site::protect, 1), "ns");
                add(layer, n + ".recordmgr.protects_per_op",
                             aa.ops[TRACED] > 0
                                 ? aa.protect_calls / static_cast<double>(aa.ops[TRACED])
                                 : 0.0,
                             "count");
                add(layer, n + ".recordmgr.unprotect_ns", mean_site(site::unprotect, 1), "ns");
                add(layer, n + ".reclaim.scans_per_kop", per_kop(aa.work.hp_scans), "1/kop");
            }
            add(layer, n + ".reclaim.retire_ns", mean_site(site::retire, 1), "ns");
            add(layer, n + ".reclaim.retire_p99_ns",
                         net_pct(aa.sites[static_cast<int>(site::retire)].hist, 0.99), "ns");
            add(layer, n + ".alloc.new_record_ns", mean_site(site::alloc, 1), "ns");
            const double fresh = static_cast<double>(aa.work.allocated);
            const double reused = static_cast<double>(aa.work.reused);
            add(layer, n + ".pool.reuse_ratio",
                         fresh + reused > 0 ? reused / (fresh + reused) : 0.0, "ratio");
            add(layer, n + ".trace.overhead_pct",
                         100.0 * (1.0 - paired_median(aa.rate[TRACED], aa.rate[UNTRACED])),
                         "%");
        }
    }
    // Raw untraced figures the ratios are made of (context, never gated).
    for (int a = 0; a < N_ARMS; ++a) {
        const std::string n = ARM_NAMES[a];
        add(layer, n + ".mops", median(acc[a].rate[UNTRACED]) / 1e6, "Mops/s");
        add(layer, n + ".p99_ns", pct(acc[a].all[UNTRACED], 0.99), "ns");
    }

    json run_info = json::object();
    run_info.set("sessions", w.sessions);
    run_info.set("rounds_per_session", rounds);
    run_info.set("window_s", window_s);
    run_info.set("threads", threads);
    run_info.set("setup_samples", setup_s.size());
    run_info.set("range_queries_checked", rq_checked);
    run_info.set("clock", smr::lat_clock::source_name());

    json doc = json::object();
    doc.set("correct", failed == 0);
    doc.set("attempted", attempted);
    doc.set("failed", failed);
    doc.set("metrics", std::move(e2e));
    doc.set("layers", std::move(layer));
    doc.set("samples", std::move(samples));
    doc.set("run", std::move(run_info));
    std::printf("%s\n", doc.dump().c_str());
    return failed == 0 ? 0 : 1;
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload <update_heavy|read_scan_large|"
                 "stalled_thread> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
}

}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    options o;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char* v = argv[i + 1];
        if (k == "--workload") {
            for (const auto& w : WORKLOADS) {
                if (std::strcmp(w.name, v) == 0) o.workload = &w;
            }
        } else if (k == "--seed") {
            o.seed = std::strtoull(v, nullptr, 10);
        } else if (k == "--seconds") {
            o.seconds = std::strtod(v, nullptr);
        } else if (k == "--trace") {
            o.trace = std::strcmp(v, "1") == 0;
        } else {
            return usage();
        }
    }
    if (o.workload == nullptr || !(o.seconds > 0) || argc % 2 != 1) {
        return usage();
    }
    // Keep freed memory in the heap instead of returning it to the kernel,
    // so a rebuilt arm set reuses the pages of the one before it. Otherwise
    // every setup rep re-faults megabytes of zeroed per-thread tables and
    // chunks, and setup_s prices the host's page-fault cost (which swings
    // with the machine's memory pressure) more than building the arms.
    mallopt(M_MMAP_THRESHOLD, 1 << 30);
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
    return o.trace ? run<true>(o) : run<false>(o);
}
