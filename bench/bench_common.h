// bench_common.h -- shared scaffolding for the smr_bench scenario driver
// (see DESIGN.md Section 4 for the scenario-to-paper mapping and Section 5
// for the driver architecture).
//
// Until PR 3 this header backed 15 single-experiment binaries, each with
// its own main() and printf tables; those are now registry entries of one
// driver (bench/smr_bench). What lives here is the part every runner
// translation unit shares:
//
//   * the benchmarked key/value types,
//   * one adapter per data structure, naming the record_manager
//     instantiation and constructing the structure (the adapter is where
//     "which record types does this structure need?" is answered once),
//   * the memory-policy axis of the paper's evaluation: overhead
//     (Experiment 1: bump allocator + discard pool, reclamation pays its
//     bookkeeping but gains nothing), reclaim (Experiment 2: bump + the
//     paper's object pool), malloc (Experiment 3: system malloc + pool),
//   * the scheme/policy dispatch templates that turn the driver's runtime
//     (--ds, --scheme) strings into template instantiations, including
//     the compile-time exclusion of DEBRA+ from structures that carry no
//     neutralization recovery code (paper Section 5).
//
// Run parameters come from harness::bench_config (bench_config.h), which
// the command-line flags fill in.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

#include "ds/concepts.h"
#include "ds/ellen_bst.h"
#include "ds/harris_list.h"
#include "ds/hash_map.h"
#include "ds/lazy_skiplist.h"
#include "ds/ms_queue.h"
#include "ds/treiber_stack.h"
#include "harness/bench_config.h"
#include "harness/report.h"
#include "harness/workload.h"
#include "recordmgr/record_manager.h"
#include "reclaim/era/reclaimer_he.h"
#include "reclaim/era/reclaimer_ibr.h"
#include "reclaim/reclaimer_debra.h"
#include "reclaim/reclaimer_debra_plus.h"
#include "reclaim/reclaimer_hp.h"
#include "reclaim/reclaimer_none.h"

namespace smr::bench {

using key_t = long long;
using val_t = long long;

/// The memory-policy axis (allocator x pool) of the paper's three
/// experiments, plus the size-class arena point (PR 5):
///   overhead  bump  + discard pool   (Experiment 1)
///   reclaim   bump  + shared pool    (Experiment 2)
///   malloc    malloc+ shared pool    (Experiment 3)
///   arena     arena + shared pool    (allocator sweep / NUMA scenarios)
enum class policy_kind { overhead, reclaim, malloc_pool, arena_pool };

inline const char* policy_name(policy_kind p) {
    switch (p) {
        case policy_kind::overhead: return "overhead";
        case policy_kind::reclaim: return "reclaim";
        case policy_kind::malloc_pool: return "malloc";
        case policy_kind::arena_pool: return "arena";
    }
    return "?";
}

/// Maps an --alloc name to its policy (every allocator runs over the
/// shared pool; "discard" names the Experiment-1 overhead policy). Also
/// accepts the policy names themselves, so --alloc=reclaim works.
inline bool policy_for_alloc_name(const std::string& name,
                                  policy_kind* out) {
    if (name == "bump" || name == "reclaim") {
        *out = policy_kind::reclaim;
        return true;
    }
    if (name == "malloc") {
        *out = policy_kind::malloc_pool;
        return true;
    }
    if (name == "arena") {
        *out = policy_kind::arena_pool;
        return true;
    }
    if (name == "discard" || name == "overhead") {
        *out = policy_kind::overhead;
        return true;
    }
    return false;
}

/// The paper's two operation mixes (Section 7), reused by scenarios.
struct op_mix {
    std::string name;
    int insert_pct;
    int delete_pct;
};
inline const op_mix MIX_50_50 = {"50i-50d", 50, 50};
inline const op_mix MIX_25_25_50 = {"25i-25d-50s", 25, 25};

// ---- data structure adapters ----------------------------------------------
//
// An adapter binds a CLI name to the structure's record_manager
// instantiation and its constructor shape. `supports_neutralization` is
// the paper's applicability predicate for DEBRA+: only structures with
// recovery code may instantiate a crash-recovery scheme (the others
// static_assert against it, so the exclusion must happen here, at compile
// time, not by catching a failure at run time). `is_pushpop` names the
// container concept (ds/concepts.h) the adapter's structure satisfies --
// stack_queue_like when true, ordered_set_like when false, checked by
// static_assert below -- which selects the harness shape (set_shape vs
// pushpop_shape) at compile time.

struct ds_ellen_bst {
    static constexpr const char* name = "ellen_bst";
    static constexpr bool supports_neutralization = true;
    static constexpr bool is_pushpop = false;
    template <class Scheme, class Alloc, class Pool>
    using mgr_t = record_manager<Scheme, Alloc, Pool, ds::bst_node<key_t, val_t>,
                                 ds::bst_info<key_t, val_t>>;
    static constexpr int num_record_types = 2;
    template <class Mgr>
    static ds::ellen_bst<key_t, val_t, Mgr> construct(Mgr& mgr,
                                                      long long /*range*/) {
        return ds::ellen_bst<key_t, val_t, Mgr>(mgr);
    }
};

struct ds_lazy_skiplist {
    static constexpr const char* name = "lazy_skiplist";
    static constexpr bool supports_neutralization = false;
    static constexpr bool is_pushpop = false;
    template <class Scheme, class Alloc, class Pool>
    using mgr_t =
        record_manager<Scheme, Alloc, Pool, ds::skiplist_node<key_t, val_t>>;
    static constexpr int num_record_types = 1;
    template <class Mgr>
    static ds::lazy_skiplist<key_t, val_t, Mgr> construct(Mgr& mgr,
                                                          long long /*range*/) {
        return ds::lazy_skiplist<key_t, val_t, Mgr>(mgr);
    }
};

struct ds_harris_list {
    static constexpr const char* name = "harris_list";
    static constexpr bool supports_neutralization = false;
    static constexpr bool is_pushpop = false;
    template <class Scheme, class Alloc, class Pool>
    using mgr_t =
        record_manager<Scheme, Alloc, Pool, ds::list_node<key_t, val_t>>;
    static constexpr int num_record_types = 1;
    template <class Mgr>
    static ds::harris_list<key_t, val_t, Mgr> construct(Mgr& mgr,
                                                        long long /*range*/) {
        return ds::harris_list<key_t, val_t, Mgr>(mgr);
    }
};

struct ds_hash_map {
    static constexpr const char* name = "hash_map";
    static constexpr bool supports_neutralization = false;
    static constexpr bool is_pushpop = false;
    template <class Scheme, class Alloc, class Pool>
    using mgr_t =
        record_manager<Scheme, Alloc, Pool, ds::list_node<key_t, val_t>>;
    static constexpr int num_record_types = 1;
    template <class Mgr>
    static ds::hash_map<key_t, val_t, Mgr> construct(Mgr& mgr,
                                                     long long range) {
        // ~8 keys per bucket at the harness's half-full steady state.
        const long long buckets = range / 16;
        return ds::hash_map<key_t, val_t, Mgr>(
            mgr, static_cast<std::size_t>(
                     buckets < 16 ? 16 : buckets > (1 << 20) ? (1 << 20)
                                                             : buckets));
    }
};

struct ds_treiber_stack {
    static constexpr const char* name = "treiber_stack";
    static constexpr bool supports_neutralization = false;
    static constexpr bool is_pushpop = true;
    template <class Scheme, class Alloc, class Pool>
    using mgr_t =
        record_manager<Scheme, Alloc, Pool, ds::stack_node<val_t>>;
    static constexpr int num_record_types = 1;
    template <class Mgr>
    static ds::treiber_stack<val_t, Mgr> construct(Mgr& mgr,
                                                   long long /*range*/) {
        return ds::treiber_stack<val_t, Mgr>(mgr);
    }
};

struct ds_ms_queue {
    static constexpr const char* name = "ms_queue";
    static constexpr bool supports_neutralization = false;
    static constexpr bool is_pushpop = true;
    template <class Scheme, class Alloc, class Pool>
    using mgr_t = record_manager<Scheme, Alloc, Pool, ds::queue_node<val_t>>;
    static constexpr int num_record_types = 1;
    template <class Mgr>
    static ds::ms_queue<val_t, Mgr> construct(Mgr& mgr, long long /*range*/) {
        return ds::ms_queue<val_t, Mgr>(mgr);
    }
};

// The adapters' structures must satisfy the container concept their
// harness shape consumes; one representative scheme per adapter pins this
// at compile time (the runner TUs instantiate the full matrices).
namespace concept_checks {
using check_mgr = record_manager<reclaim::reclaim_debra, alloc_malloc,
                                 pool_shared, ds::list_node<key_t, val_t>,
                                 ds::skiplist_node<key_t, val_t>,
                                 ds::bst_node<key_t, val_t>,
                                 ds::bst_info<key_t, val_t>,
                                 ds::stack_node<val_t>, ds::queue_node<val_t>>;
static_assert(ds::ordered_set_like<ds::ellen_bst<key_t, val_t, check_mgr>>);
static_assert(
    ds::ordered_set_like<ds::lazy_skiplist<key_t, val_t, check_mgr>>);
static_assert(ds::ordered_set_like<ds::harris_list<key_t, val_t, check_mgr>>);
static_assert(ds::ordered_set_like<ds::hash_map<key_t, val_t, check_mgr>>);
static_assert(ds::stack_queue_like<ds::treiber_stack<val_t, check_mgr>>);
static_assert(ds::stack_queue_like<ds::ms_queue<val_t, check_mgr>>);
}  // namespace concept_checks

// ---- trial execution -------------------------------------------------------

/// Outcome of asking the dispatch layer for one (ds, scheme, policy) point.
enum class point_status {
    ok,
    unsupported,   // legal request, combination excluded by design
    unknown_name,  // no such scheme
};

/// One timed trial of `cfg` on a freshly constructed manager + structure.
/// The adapter's concept picks the harness shape: ordered sets run the
/// paper's mix (plus range queries), stacks/queues run push/pop.
/// cfg.serve switches on the sustained-service parts of the same loop
/// (pacing, churn, snapshot streaming, the leak monitor), whose timeline
/// header names the (ds, scheme) cell; push/pop adapters are gated off
/// serve mode in run_with_policy.
template <class Adapter, class Scheme, class Alloc, class Pool>
harness::trial_result run_one_trial(const harness::workload_config& cfg) {
    using mgr_t = typename Adapter::template mgr_t<Scheme, Alloc, Pool>;
    using shape = std::conditional_t<Adapter::is_pushpop,
                                     harness::workload_detail::pushpop_shape,
                                     harness::workload_detail::set_shape>;
    mgr_t mgr(cfg.num_threads);
    auto structure = Adapter::construct(mgr, cfg.key_range);
    harness::json meta = harness::json::object();
    meta.set("ds", std::string(Adapter::name));
    meta.set("scheme", std::string(Scheme::name));
    return harness::workload_detail::run_timed_trial<shape>(
        structure, mgr, cfg, harness::SMR_BENCH_SCHEMA_VERSION, meta);
}

template <class Adapter, class Scheme>
point_status run_with_policy(policy_kind policy,
                             const harness::workload_config& cfg,
                             harness::trial_result* out, std::string* note) {
    if constexpr (Scheme::supports_crash_recovery &&
                  !Adapter::supports_neutralization) {
        (void)policy;
        (void)cfg;
        (void)out;
        if (note != nullptr) {
            *note = std::string(Scheme::name) + " needs neutralization " +
                    "recovery code, which only ellen_bst carries (paper " +
                    "Section 5)";
        }
        return point_status::unsupported;
    } else if (cfg.serve.enabled && Adapter::is_pushpop) {
        if (note != nullptr) {
            *note = "serve mode paces the set-shaped operation mix; "
                    "push/pop structures are not served";
        }
        return point_status::unsupported;
    } else {
        switch (policy) {
            case policy_kind::overhead:
                *out = run_one_trial<Adapter, Scheme, alloc_bump,
                                     pool_discarding>(cfg);
                break;
            case policy_kind::reclaim:
                *out = run_one_trial<Adapter, Scheme, alloc_bump,
                                     pool_shared>(cfg);
                break;
            case policy_kind::malloc_pool:
                *out = run_one_trial<Adapter, Scheme, alloc_malloc,
                                     pool_shared>(cfg);
                break;
            case policy_kind::arena_pool:
                *out = run_one_trial<Adapter, Scheme, alloc_arena,
                                     pool_shared>(cfg);
                break;
        }
        return point_status::ok;
    }
}

/// Runtime scheme name -> template instantiation, for one adapter. The
/// CLI names are the schemes' canonical names except 2GE-IBR, which is
/// plain "ibr" on the command line.
template <class Adapter>
point_status run_for_scheme(const std::string& scheme, policy_kind policy,
                            const harness::workload_config& cfg,
                            harness::trial_result* out, std::string* note) {
    if (scheme == "none") {
        return run_with_policy<Adapter, reclaim::reclaim_none>(policy, cfg,
                                                               out, note);
    }
    if (scheme == "ebr") {
        return run_with_policy<Adapter, reclaim::reclaim_ebr>(policy, cfg,
                                                              out, note);
    }
    if (scheme == "debra") {
        return run_with_policy<Adapter, reclaim::reclaim_debra>(policy, cfg,
                                                                out, note);
    }
    if (scheme == "debra+") {
        return run_with_policy<Adapter, reclaim::reclaim_debra_plus>(
            policy, cfg, out, note);
    }
    if (scheme == "hp") {
        return run_with_policy<Adapter, reclaim::reclaim_hp>(policy, cfg, out,
                                                             note);
    }
    if (scheme == "he") {
        return run_with_policy<Adapter, reclaim::reclaim_he>(policy, cfg, out,
                                                             note);
    }
    if (scheme == "ibr") {
        return run_with_policy<Adapter, reclaim::reclaim_ibr>(policy, cfg,
                                                              out, note);
    }
    if (note != nullptr) {
        *note = "unknown scheme '" + scheme +
                "' (known: none, ebr, debra, debra+, hp, he, ibr)";
    }
    return point_status::unknown_name;
}

// ---- table printing --------------------------------------------------------
//
// The driver keeps the per-binary era's human-readable tables on stdout
// (scheme columns, thread rows, ratios against the first column) next to
// the JSON document.

inline void print_table_header(const std::vector<std::string>& schemes) {
    std::printf("%8s", "threads");
    for (const auto& s : schemes) std::printf("%10s", s.c_str());
    std::printf("  |");
    for (std::size_t i = 1; i < schemes.size(); ++i) {
        std::printf("  %s/%s", schemes[i].c_str(), schemes[0].c_str());
    }
    std::printf("\n");
}

inline void print_table_row(int threads, const std::vector<double>& mops) {
    std::printf("%8d", threads);
    for (double m : mops) {
        if (m < 0) {
            std::printf("%10s", "-");  // unsupported cell
        } else {
            std::printf("%10.3f", m);
        }
    }
    std::printf("  |");
    for (std::size_t i = 1; i < mops.size(); ++i) {
        std::printf("  %8.2f", mops[0] > 0 && mops[i] >= 0
                                   ? mops[i] / mops[0]
                                   : 0.0);
    }
    std::printf("\n");
}

inline void print_banner(const std::string& title,
                         const harness::bench_config& cfg) {
    std::printf("==========================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("trial_ms=%d trials=%d\n", cfg.trial_ms, cfg.trials);
    std::printf("==========================================================\n");
}

}  // namespace smr::bench
