// The scheme-conformance matrix: every data structure in src/ds/ against
// every reclamation scheme (none / DEBRA / DEBRA+ / HP / HE / IBR),
// instantiated at compile time through one typed test suite.
//
// Each compatible (structure, scheme) cell runs the paper's harness
// workload concurrently and checks its size invariant -- a reclamation bug
// that frees a reachable record breaks it or crashes (under ASan, every
// cell is also a use-after-free probe). On top of that the suite asserts
// the Scheme-concept trait predicates and, for the bounded schemes
// (HP / HE / IBR), that total_limbo_all_types() respects the scan
// threshold after the workload.
//
// Known incompatibilities are part of the matrix's claim, not holes in it:
// DEBRA+ requires the structure to carry neutralization recovery code,
// which only the Ellen BST does (the other structures static_assert
// against it, reproducing the paper's applicability table).
#include <gtest/gtest.h>

#include <setjmp.h>

#include <atomic>
#include <concepts>
#include <thread>
#include <vector>

#include "ds/concepts.h"
#include "ds/hash_map.h"
#include "ds/ms_queue.h"
#include "ds/treiber_stack.h"
#include "ds_test_util.h"
#include "harness/workload.h"
#include "reclaim/era/reclaimer_he.h"
#include "reclaim/era/reclaimer_ibr.h"
#include "sanitizer_util.h"

namespace smr {
namespace {

using testutil::fast_config;
using testutil::skip_leaky_cell;
using testutil::key_t;
using testutil::val_t;

constexpr int THREADS = 3;

using AllSchemes =
    ::testing::Types<reclaim::reclaim_none, reclaim::reclaim_debra,
                     reclaim::reclaim_debra_plus, reclaim::reclaim_hp,
                     reclaim::reclaim_he, reclaim::reclaim_ibr>;

template <class Scheme>
class SchemeMatrix : public ::testing::Test {};
TYPED_TEST_SUITE(SchemeMatrix, AllSchemes);

/// Bounded-limbo predicate: schemes that reclaim by reservation scan
/// expose a scan threshold; after a trial their limbo must respect it.
/// Per thread and type a bag may retain, beyond the threshold, records
/// still covered at the last scan plus up to three partial blocks (the
/// head block, the partition-boundary block, and growth since the scan
/// only sheds full blocks). Quiescence-only schemes have no such bound
/// and are not checked.
template <class Mgr>
void expect_limbo_bounded(Mgr& mgr, int num_types) {
    if constexpr (requires { mgr.global().scan_threshold_records(); }) {
        const long long bound =
            static_cast<long long>(num_types) * mgr.num_threads() *
            (mgr.global().scan_threshold_records() + 3 * Mgr::BLOCK_SIZE);
        EXPECT_LE(mgr.total_limbo_all_types(), bound);
    }
}

/// Post-trial settle: run a little per-tid churn so every thread's limbo
/// bag crosses its scan threshold again *after* the workers quiesced.
/// Scan-based schemes keep records covered by reservations live at their
/// last mid-trial scan (a preempted worker's stale reservation can cover
/// thousands of retires at the stack/queue's retire rate); with no other
/// reservations live, these settle scans free all of that, leaving the
/// bags at their true steady-state bound.
template <class Mgr, class ChurnFn>
void settle_limbo(Mgr& mgr, int threads, ChurnFn&& per_tid_churn) {
    for (int t = 0; t < threads; ++t) {
        auto h = mgr.register_thread(t);
        per_tid_churn(mgr.access(h));
    }
}

/// One matrix cell for a set-shaped structure: concurrent harness workload
/// with the size-invariant check, then the limbo bound.
template <class Mgr, class DS>
void run_set_cell(Mgr& mgr, DS& ds, int num_types) {
    harness::workload_config cfg;
    cfg.num_threads = THREADS;
    cfg.key_range = 512;
    cfg.insert_pct = 40;
    cfg.delete_pct = 40;
    cfg.trial_ms = 40;
    cfg.seed = 42;
    const auto r = harness::run_trial(ds, mgr, cfg);
    EXPECT_TRUE(r.size_invariant_holds())
        << "final=" << r.final_size << " expected=" << r.expected_final_size;
    EXPECT_GT(r.total_ops, 0);
    expect_limbo_bounded(mgr, num_types);
}

// ---- Scheme concept conformance ------------------------------------------

TYPED_TEST(SchemeMatrix, SchemeConceptConformance) {
    using S = TypeParam;
    // The record_manager vocabulary every scheme must satisfy (paper
    // Section 6): compile-time traits, a config, a global_state, and a
    // per-type component.
    static_assert(S::name != nullptr);
    static_assert(std::is_same_v<decltype(S::supports_crash_recovery),
                                 const bool>);
    static_assert(std::is_same_v<decltype(S::is_fault_tolerant), const bool>);
    static_assert(std::is_same_v<decltype(S::quiescence_based), const bool>);
    static_assert(
        std::is_same_v<decltype(S::per_access_protection), const bool>);
    static_assert(std::is_default_constructible_v<typename S::config>);
    // A scheme with per-access protection can never hand out records whose
    // protection the structure cannot release; crash recovery implies
    // fault tolerance.
    static_assert(!S::supports_crash_recovery || S::is_fault_tolerant);
    using mgr_t = testutil::list_mgr<S>;
    static_assert(mgr_t::quiescence_based == S::quiescence_based);
    static_assert(mgr_t::per_access_protection == S::per_access_protection);
    // The scheme contract (record_manager.h): each trait names the hooks
    // the global state supplies, and the manager answers the hooks a trait
    // rules out. Crash recovery adds the limbo pressure to leave_qstate.
    using G = typename S::global_state;
    static_assert(!S::per_access_protection ||
                  requires(G& g, const G& cg, const void* p,
                           bool (*validate)()) {
                      { g.protect(0, p, validate) } -> std::same_as<bool>;
                      g.unprotect(0, p);
                      { cg.is_protected(0, p) } -> std::same_as<bool>;
                      g.clear_hazards(0);
                  });
    static_assert(!S::quiescence_based ||
                  (requires(G& g, const G& cg) {
                      g.enter_qstate(0);
                      { cg.is_quiescent(0) } -> std::same_as<bool>;
                  } && (S::supports_crash_recovery ||
                        requires(G& g, void (*rotate)()) {
                            { g.leave_qstate(0, rotate) } -> std::same_as<bool>;
                        })));
    static_assert(!S::supports_crash_recovery ||
                  requires(G& g, const G& cg, const void* p,
                           void (*rotate)(), int (*pressure)()) {
                      {
                          g.leave_qstate(0, rotate, pressure)
                      } -> std::same_as<bool>;
                      { g.rprotect(0, p) } -> std::same_as<bool>;
                      g.runprotect_all(0);
                      { cg.is_rprotected(0, p) } -> std::same_as<bool>;
                      { g.jmp_env(0) } -> std::same_as<sigjmp_buf&>;
                      g.prepare_recovery(0);
                  });
    // The RAII layer instantiates for every scheme, and its guard_ptr is a
    // bare pointer exactly when the scheme has no per-access protection.
    using node_t = ds::list_node<key_t, val_t>;
    using guard_t = typename mgr_t::template guard_t<node_t>;
    static_assert(!std::is_copy_constructible_v<guard_t>);
    if constexpr (!S::per_access_protection) {
        static_assert(std::is_trivially_destructible_v<guard_t>);
        static_assert(sizeof(guard_t) == sizeof(node_t*));
    }
    // guard_span mirrors the guarantee in bulk: an empty trivially
    // destructible token for epoch schemes (legal inside run_guarded
    // bodies), a releasing owner for per-access schemes.
    using span_t = typename mgr_t::span_t;
    static_assert(!std::is_copy_constructible_v<span_t>);
    static_assert(std::is_move_constructible_v<span_t>);
    if constexpr (!S::per_access_protection) {
        static_assert(std::is_trivially_destructible_v<span_t>);
        static_assert(std::is_empty_v<span_t>);
    } else {
        static_assert(!std::is_trivially_destructible_v<span_t>);
    }
    SUCCEED();
}

TYPED_TEST(SchemeMatrix, ContainerConceptConformance) {
    using S = TypeParam;
    // Every structure satisfies its container concept (ds/concepts.h)
    // under every scheme it instantiates with; DEBRA+ cells exist only
    // where the structure carries neutralization recovery code.
    static_assert(ds::ordered_set_like<
                  ds::ellen_bst<key_t, val_t, testutil::bst_mgr<S>>>);
    if constexpr (!S::supports_crash_recovery) {
        static_assert(ds::ordered_set_like<
                      ds::harris_list<key_t, val_t, testutil::list_mgr<S>>>);
        static_assert(ds::ordered_set_like<
                      ds::hash_map<key_t, val_t, testutil::list_mgr<S>>>);
        static_assert(ds::ordered_set_like<
                      ds::lazy_skiplist<key_t, val_t, testutil::skip_mgr<S>>>);
        using stack_mgr = record_manager<S, alloc_malloc, pool_shared,
                                         ds::stack_node<long>>;
        using queue_mgr = record_manager<S, alloc_malloc, pool_shared,
                                         ds::queue_node<long>>;
        static_assert(
            ds::stack_queue_like<ds::treiber_stack<long, stack_mgr>>);
        static_assert(ds::stack_queue_like<ds::ms_queue<long, queue_mgr>>);
    }
    SUCCEED();
}

// ---- set-shaped structures -----------------------------------------------

TYPED_TEST(SchemeMatrix, HarrisList) {
    using S = TypeParam;
    if (skip_leaky_cell<S>()) GTEST_SKIP() << "'none' leaks by design";
    if constexpr (S::supports_crash_recovery) {
        GTEST_SKIP() << "harris_list carries no neutralization recovery";
    } else {
        using mgr_t = testutil::list_mgr<S>;
        mgr_t mgr(THREADS, fast_config<mgr_t>());
        ds::harris_list<key_t, val_t, mgr_t> list(mgr);
        run_set_cell(mgr, list, 1);
    }
}

TYPED_TEST(SchemeMatrix, LazySkiplist) {
    using S = TypeParam;
    if (skip_leaky_cell<S>()) GTEST_SKIP() << "'none' leaks by design";
    if constexpr (S::supports_crash_recovery) {
        GTEST_SKIP() << "lazy_skiplist carries no neutralization recovery";
    } else {
        using mgr_t = testutil::skip_mgr<S>;
        mgr_t mgr(THREADS, fast_config<mgr_t>());
        ds::lazy_skiplist<key_t, val_t, mgr_t> skip(mgr);
        run_set_cell(mgr, skip, 1);
    }
}

TYPED_TEST(SchemeMatrix, EllenBst) {
    using S = TypeParam;
    if (skip_leaky_cell<S>()) GTEST_SKIP() << "'none' leaks by design";
    using mgr_t = testutil::bst_mgr<S>;
    mgr_t mgr(THREADS, fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    run_set_cell(mgr, bst, 2);
}

TYPED_TEST(SchemeMatrix, ArenaAllocatorCell) {
    // The AllocTag axis column: every reclaimer builds and runs over the
    // size-class arena allocator (alloc_arena + shared pool) with the
    // same size-invariant and bounded-limbo checks as the malloc cells.
    // The BST covers both managed record types (node + era-stamped info
    // wrappers under HE/IBR) and is the one structure that also
    // instantiates DEBRA+ here.
    using S = TypeParam;
    if (skip_leaky_cell<S>()) GTEST_SKIP() << "'none' leaks by design";
    using mgr_t =
        record_manager<S, alloc_arena, pool_shared, ds::bst_node<key_t, val_t>,
                       ds::bst_info<key_t, val_t>>;
    mgr_t mgr(THREADS, fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    run_set_cell(mgr, bst, 2);
}

TYPED_TEST(SchemeMatrix, HashMap) {
    using S = TypeParam;
    if (skip_leaky_cell<S>()) GTEST_SKIP() << "'none' leaks by design";
    if constexpr (S::supports_crash_recovery) {
        GTEST_SKIP() << "hash_map buckets carry no neutralization recovery";
    } else {
        using mgr_t = testutil::list_mgr<S>;
        mgr_t mgr(THREADS, fast_config<mgr_t>());
        ds::hash_map<key_t, val_t, mgr_t> map(mgr, 32);
        run_set_cell(mgr, map, 1);
    }
}

// ---- harness shapes over the concepts -------------------------------------

TYPED_TEST(SchemeMatrix, RangeScanMixHarnessCell) {
    // The set harness with a range-query share: exercises guard_span
    // protection windows under concurrency for every scheme (including
    // DEBRA+ neutralization through the BST's run_guarded scan).
    using S = TypeParam;
    if (skip_leaky_cell<S>()) GTEST_SKIP() << "'none' leaks by design";
    using mgr_t = testutil::bst_mgr<S>;
    mgr_t mgr(THREADS, fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    harness::workload_config cfg;
    cfg.num_threads = THREADS;
    cfg.key_range = 512;
    cfg.insert_pct = 30;
    cfg.delete_pct = 30;
    cfg.rq_pct = 20;
    cfg.rq_len = 64;
    cfg.trial_ms = 40;
    cfg.seed = 99;
    const auto r = harness::run_trial(bst, mgr, cfg);
    EXPECT_TRUE(r.size_invariant_holds())
        << "final=" << r.final_size << " expected=" << r.expected_final_size;
    EXPECT_GT(r.range_queries, 0);
    EXPECT_GT(r.range_keys, 0);
    settle_limbo(mgr, THREADS, [&](auto acc) {
        for (key_t k = 0; k < 200; ++k) {
            bst.insert(acc, 1000 + k, k);
            bst.erase(acc, 1000 + k);
        }
    });
    expect_limbo_bounded(mgr, 2);
}

TYPED_TEST(SchemeMatrix, PushPopHarnessCell) {
    // The stack_queue_like harness shape: the stack and queue run the
    // same timed trial as the sets, element-count invariant included.
    using S = TypeParam;
    if (skip_leaky_cell<S>()) GTEST_SKIP() << "'none' leaks by design";
    if constexpr (S::supports_crash_recovery) {
        GTEST_SKIP() << "stack/queue carry no neutralization recovery";
    } else {
        harness::workload_config cfg;
        cfg.num_threads = THREADS;
        cfg.key_range = 512;  // prefill/2 elements + value range
        cfg.insert_pct = 55;  // push share; the rest pops
        cfg.delete_pct = 45;
        cfg.trial_ms = 40;
        cfg.seed = 7;
        {
            using mgr_t = record_manager<S, alloc_malloc, pool_shared,
                                         ds::stack_node<long long>>;
            mgr_t mgr(THREADS, fast_config<mgr_t>());
            ds::treiber_stack<long long, mgr_t> stack(mgr);
            const auto r = harness::run_pushpop_trial(stack, mgr, cfg);
            EXPECT_TRUE(r.size_invariant_holds())
                << "stack final=" << r.final_size
                << " expected=" << r.expected_final_size;
            EXPECT_GT(r.total_ops, 0);
            settle_limbo(mgr, THREADS, [&](auto acc) {
                for (int i = 0; i < 200; ++i) {
                    stack.push(acc, i);
                    (void)stack.try_pop(acc);
                }
            });
            expect_limbo_bounded(mgr, 1);
        }
        {
            using mgr_t = record_manager<S, alloc_malloc, pool_shared,
                                         ds::queue_node<long long>>;
            mgr_t mgr(THREADS, fast_config<mgr_t>());
            ds::ms_queue<long long, mgr_t> queue(mgr);
            const auto r = harness::run_pushpop_trial(queue, mgr, cfg);
            EXPECT_TRUE(r.size_invariant_holds())
                << "queue final=" << r.final_size
                << " expected=" << r.expected_final_size;
            EXPECT_GT(r.total_ops, 0);
            settle_limbo(mgr, THREADS, [&](auto acc) {
                for (int i = 0; i < 200; ++i) {
                    queue.push(acc, i);
                    (void)queue.try_pop(acc);
                }
            });
            expect_limbo_bounded(mgr, 1);
        }
    }
}

// ---- differential correctness (single-threaded, every cell) --------------

TYPED_TEST(SchemeMatrix, DifferentialAgainstStdMap) {
    using S = TypeParam;
    if (skip_leaky_cell<S>()) GTEST_SKIP() << "'none' leaks by design";
    constexpr int OPS = 4000;
    {
        using mgr_t = testutil::bst_mgr<S>;
        mgr_t mgr(1, fast_config<mgr_t>());
        ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
        auto handle = mgr.register_thread();
        EXPECT_EQ(testutil::differential_test(bst, mgr.access(handle), 7,
                                              OPS, 128),
                  OPS);
    }
    if constexpr (!S::supports_crash_recovery) {
        using mgr_t = testutil::list_mgr<S>;
        mgr_t mgr(1, fast_config<mgr_t>());
        ds::harris_list<key_t, val_t, mgr_t> list(mgr);
        ds::hash_map<key_t, val_t, mgr_t> map(mgr, 16);
        auto handle = mgr.register_thread();
        EXPECT_EQ(testutil::differential_test(list, mgr.access(handle), 11,
                                              OPS, 128),
                  OPS);
        EXPECT_EQ(testutil::differential_test(map, mgr.access(handle), 13,
                                              OPS, 128),
                  OPS);
    }
}

// ---- stack and queue ------------------------------------------------------

TYPED_TEST(SchemeMatrix, TreiberStack) {
    using S = TypeParam;
    if (skip_leaky_cell<S>()) GTEST_SKIP() << "'none' leaks by design";
    if constexpr (S::supports_crash_recovery) {
        GTEST_SKIP() << "treiber_stack carries no neutralization recovery";
    } else {
        using mgr_t = record_manager<S, alloc_malloc, pool_shared,
                                     ds::stack_node<long>>;
        mgr_t mgr(THREADS, fast_config<mgr_t>());
        ds::treiber_stack<long, mgr_t> stack(mgr);
        constexpr int PER_THREAD = 3000;
        std::atomic<long long> popped_sum{0};
        std::atomic<long long> popped_count{0};
        std::vector<std::thread> workers;
        for (int t = 0; t < THREADS; ++t) {
            workers.emplace_back([&, t] {
                auto handle = mgr.register_thread(t);
                auto acc = mgr.access(handle);
                long long my_sum = 0, my_count = 0;
                for (int i = 0; i < PER_THREAD; ++i) {
                    stack.push(acc, t * PER_THREAD + i);
                    if (i % 4 != 0) {
                        if (auto v = stack.pop(acc)) {
                            my_sum += *v;
                            ++my_count;
                        }
                    }
                }
                popped_sum.fetch_add(my_sum);
                popped_count.fetch_add(my_count);
            });
        }
        for (auto& w : workers) w.join();
        auto drain_handle = mgr.register_thread();
        auto drain_acc = mgr.access(drain_handle);
        long long drain_sum = 0, drain_count = 0;
        while (auto v = stack.pop(drain_acc)) {
            drain_sum += *v;
            ++drain_count;
        }
        const long long total = static_cast<long long>(THREADS) * PER_THREAD;
        EXPECT_EQ(popped_count.load() + drain_count, total);
        long long expected_sum = 0;
        for (long long v = 0; v < total; ++v) expected_sum += v;
        EXPECT_EQ(popped_sum.load() + drain_sum, expected_sum);
        expect_limbo_bounded(mgr, 1);
    }
}

TYPED_TEST(SchemeMatrix, MsQueue) {
    using S = TypeParam;
    if (skip_leaky_cell<S>()) GTEST_SKIP() << "'none' leaks by design";
    if constexpr (S::supports_crash_recovery) {
        GTEST_SKIP() << "ms_queue carries no neutralization recovery";
    } else {
        using mgr_t = record_manager<S, alloc_malloc, pool_shared,
                                     ds::queue_node<long>>;
        mgr_t mgr(THREADS, fast_config<mgr_t>());
        ds::ms_queue<long, mgr_t> queue(mgr);
        constexpr int PER_PRODUCER = 4000;
        std::atomic<long long> consumed_sum{0};
        std::atomic<long long> consumed_count{0};
        std::atomic<int> producers_left{2};
        std::vector<std::thread> workers;
        for (int p = 0; p < 2; ++p) {
            workers.emplace_back([&, p] {
                auto handle = mgr.register_thread(p);
                auto acc = mgr.access(handle);
                for (int i = 0; i < PER_PRODUCER; ++i) {
                    queue.enqueue(acc, p * PER_PRODUCER + i);
                }
                producers_left.fetch_sub(1);
            });
        }
        workers.emplace_back([&] {
            auto handle = mgr.register_thread(2);
            auto acc = mgr.access(handle);
            // Read producers_left before dequeueing: an empty dequeue that
            // follows a 0 read came after every enqueue, so the queue is
            // drained.
            for (;;) {
                const bool producers_done = producers_left.load() == 0;
                auto v = queue.dequeue(acc);
                if (v) {
                    consumed_sum.fetch_add(*v);
                    consumed_count.fetch_add(1);
                } else if (producers_done) {
                    break;
                } else {
                    std::this_thread::yield();
                }
            }
        });
        for (auto& w : workers) w.join();
        const long long total = 2LL * PER_PRODUCER;
        EXPECT_EQ(consumed_count.load(), total);
        long long expected = 0;
        for (long long v = 0; v < total; ++v) expected += v;
        EXPECT_EQ(consumed_sum.load(), expected);
        expect_limbo_bounded(mgr, 1);
    }
}

}  // namespace
}  // namespace smr
