// Tests for the ordered_set_like range_query surface (PR 4), typed across
// all six reclamation schemes and all four set-shaped structures:
//
//   * single-threaded model check: the visitor sees exactly the model's
//     sorted, duplicate-free key subset of [lo, hi], values intact;
//   * early visitor exit stops the scan and releases every protection
//     (guard_span unwinds: live_guard_count drops to zero);
//   * the Ellen BST scan holds O(tree height) protections, not one per
//     scanned node;
//   * void visitors are accepted (visit-everything shape);
//   * concurrent churn during scans never breaks the ascending-keys
//     guarantee, delivers only in-range keys, and is ASan-clean (a scan
//     dereferencing a reclaimed node is a use-after-free under ASan --
//     the protected-node-reclamation probe).
//
// Visitors write through preallocated buffers / atomics so they satisfy
// the run_guarded body contract under DEBRA+ (ellen_bst scans run inside
// the neutralization recovery harness).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <string_view>
#include <thread>
#include <vector>

#include "ds/concepts.h"
#include "ds/hash_map.h"
#include "ds_test_util.h"
#include "reclaim/era/reclaimer_he.h"
#include "reclaim/era/reclaimer_ibr.h"
#include "sanitizer_util.h"

namespace smr {
namespace {

using testutil::fast_config;
using testutil::skip_leaky_cell;
using testutil::key_t;
using testutil::val_t;

using AllSchemes =
    ::testing::Types<reclaim::reclaim_none, reclaim::reclaim_debra,
                     reclaim::reclaim_debra_plus, reclaim::reclaim_hp,
                     reclaim::reclaim_he, reclaim::reclaim_ibr>;

template <class Scheme>
class RangeQueryTyped : public ::testing::Test {};
TYPED_TEST_SUITE(RangeQueryTyped, AllSchemes);

/// Collects visited pairs into preallocated buffers via relaxed atomics
/// (neutralization-safe: no allocation, no non-reentrant effects).
struct collector {
    explicit collector(std::size_t cap) : keys(cap), vals(cap) {}
    std::vector<key_t> keys;
    std::vector<val_t> vals;
    std::atomic<std::size_t> n{0};

    auto visitor() {
        return [this](const key_t& k, const val_t& v) {
            const std::size_t i = n.load(std::memory_order_relaxed);
            keys[i] = k;
            vals[i] = v;
            n.store(i + 1, std::memory_order_relaxed);
            return true;
        };
    }
};

/// The single-threaded contract checks, identical for every structure.
template <class Mgr, class DS>
void model_check(Mgr& mgr, DS& ds) {
    auto handle = mgr.register_thread();
    auto acc = mgr.access(handle);
    const int tid = handle.tid();

    std::set<key_t> model;
    prng rng(12345);
    for (int i = 0; i < 300; ++i) {
        const key_t k = static_cast<key_t>(rng.next(1000));
        if (ds.insert(acc, k, k * 3)) model.insert(k);
    }
    // A few erases so the structures contain unlink debris too.
    for (int i = 0; i < 60; ++i) {
        const key_t k = static_cast<key_t>(rng.next(1000));
        if (ds.erase(acc, k).has_value()) model.erase(k);
    }

    // Sweep windows, including empty and clamped ones.
    const std::pair<key_t, key_t> windows[] = {
        {0, 999}, {100, 350}, {350, 100}, {0, 0}, {990, 1500}, {-50, 20}};
    for (const auto& [lo, hi] : windows) {
        collector col(model.size() + 1);
        const long long visited = ds.range_query(acc, lo, hi, col.visitor());
        ASSERT_EQ(visited, static_cast<long long>(col.n.load()));
        std::vector<key_t> expect;
        for (const key_t k : model) {
            if (k >= lo && k <= hi) expect.push_back(k);
        }
        ASSERT_EQ(visited, static_cast<long long>(expect.size()))
            << "window [" << lo << ", " << hi << "]";
        for (std::size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(col.keys[i], expect[i]);  // sorted, duplicate-free
            EXPECT_EQ(col.vals[i], expect[i] * 3);
        }
        // Every protection the scan took has been released.
        EXPECT_EQ(mgr.live_guard_count(tid), 0);
    }

    // Early visitor exit: stop after 5 keys; the span unwinds with the
    // scan (live_guard_count back to zero immediately).
    {
        std::atomic<int> seen{0};
        const long long visited =
            ds.range_query(acc, 0, 999, [&](const key_t&, const val_t&) {
                return seen.fetch_add(1, std::memory_order_relaxed) + 1 < 5;
            });
        const long long avail =
            static_cast<long long>(model.size()) < 5
                ? static_cast<long long>(model.size())
                : 5;
        EXPECT_EQ(visited, avail);
        EXPECT_EQ(mgr.live_guard_count(tid), 0);
    }

    // Void visitor: visit-everything shape.
    {
        std::atomic<long long> count{0};
        const long long visited =
            ds.range_query(acc, 0, 999, [&](const key_t&, const val_t&) {
                count.fetch_add(1, std::memory_order_relaxed);
            });
        EXPECT_EQ(visited, static_cast<long long>(model.size()));
        EXPECT_EQ(count.load(), visited);
        EXPECT_EQ(mgr.live_guard_count(tid), 0);
    }
}

TYPED_TEST(RangeQueryTyped, EllenBstModelCheck) {
    using S = TypeParam;
    if (skip_leaky_cell<S>()) GTEST_SKIP() << "'none' leaks by design";
    using mgr_t = testutil::bst_mgr<S>;
    mgr_t mgr(2, fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    model_check(mgr, bst);
}

/// Nodes on the longest root-to-leaf path below `n` (a lone leaf is 1).
template <class Node>
int subtree_height(const Node* n) {
    const Node* l = n->left.load(std::memory_order_relaxed);
    if (l == nullptr) return 1;
    const Node* r = n->right.load(std::memory_order_relaxed);
    return 1 + std::max(subtree_height(l), subtree_height(r));
}

// The scan's protection window is its DFS stack plus the node being
// expanded, not the scanned subtree: a full-range scan of a 10,000-key tree
// holds at most height + 2 protections at any visit, and an HP slot row
// never grows past its first chunk.
TYPED_TEST(RangeQueryTyped, EllenBstScanHoldsOnlyItsStack) {
    using S = TypeParam;
    if (skip_leaky_cell<S>()) GTEST_SKIP() << "'none' leaks by design";
    using mgr_t = testutil::bst_mgr<S>;
    constexpr int THREADS = 2;
    mgr_t mgr(THREADS, fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    auto handle = mgr.register_thread();
    auto acc = mgr.access(handle);
    const int tid = handle.tid();

    constexpr int N = 10000;
    std::vector<key_t> keys(N);
    std::iota(keys.begin(), keys.end(), key_t{0});
    prng rng(2027);
    for (std::size_t i = keys.size() - 1; i > 0; --i) {
        std::swap(keys[i], keys[rng.next(i + 1)]);
    }
    for (const key_t k : keys) ASSERT_TRUE(bst.insert(acc, k, k));
    const int height = subtree_height(bst.root());

    std::atomic<int> most_held{0};
    const long long visited =
        bst.range_query(acc, 0, N - 1, [&](const key_t&, const val_t&) {
            const int held = mgr.live_guard_count(tid);
            if (held > most_held.load(std::memory_order_relaxed)) {
                most_held.store(held, std::memory_order_relaxed);
            }
        });
    EXPECT_EQ(visited, N);
    EXPECT_LE(most_held.load(), height + 2) << "tree height " << height;
    if constexpr (S::per_access_protection) {
        EXPECT_GT(most_held.load(), 0);
    }
    EXPECT_EQ(mgr.live_guard_count(tid), 0);
    if constexpr (std::string_view(S::name) == "hp") {
        EXPECT_EQ(mgr.global().max_hazards(),
                  static_cast<std::size_t>(THREADS *
                                           reclaim::detail::hp_global::K));
    }
}

TYPED_TEST(RangeQueryTyped, HarrisListModelCheck) {
    using S = TypeParam;
    if (skip_leaky_cell<S>()) GTEST_SKIP() << "'none' leaks by design";
    if constexpr (S::supports_crash_recovery) {
        GTEST_SKIP() << "harris_list carries no neutralization recovery";
    } else {
        using mgr_t = testutil::list_mgr<S>;
        mgr_t mgr(2, fast_config<mgr_t>());
        ds::harris_list<key_t, val_t, mgr_t> list(mgr);
        model_check(mgr, list);
    }
}

TYPED_TEST(RangeQueryTyped, LazySkiplistModelCheck) {
    using S = TypeParam;
    if (skip_leaky_cell<S>()) GTEST_SKIP() << "'none' leaks by design";
    if constexpr (S::supports_crash_recovery) {
        GTEST_SKIP() << "lazy_skiplist carries no neutralization recovery";
    } else {
        using mgr_t = testutil::skip_mgr<S>;
        mgr_t mgr(2, fast_config<mgr_t>());
        ds::lazy_skiplist<key_t, val_t, mgr_t> skip(mgr);
        model_check(mgr, skip);
    }
}

TYPED_TEST(RangeQueryTyped, HashMapModelCheck) {
    using S = TypeParam;
    if (skip_leaky_cell<S>()) GTEST_SKIP() << "'none' leaks by design";
    if constexpr (S::supports_crash_recovery) {
        GTEST_SKIP() << "hash_map buckets carry no neutralization recovery";
    } else {
        using mgr_t = testutil::list_mgr<S>;
        mgr_t mgr(2, fast_config<mgr_t>());
        ds::hash_map<key_t, val_t, mgr_t> map(mgr, 16);
        model_check(mgr, map);
    }
}

// ---- concurrent churn during scans ----------------------------------------

/// Two churners mutate [0, key_range); one scanner loops range queries
/// over the middle half, asserting strictly ascending in-range keys per
/// scan. Under ASan this doubles as the protected-node-reclamation probe.
/// The run lasts at least 80 ms and until both churners have made
/// CHURN_OPS operations and the scanner has delivered a key, so starved
/// churners cannot leave the scanner an empty range; a 60 s cap fails.
template <class Mgr, class DS>
void churn_scan(Mgr& mgr, DS& ds, long long key_range) {
    constexpr int CHURNERS = 2;
    constexpr long long CHURN_OPS = 1000;
    const key_t lo = static_cast<key_t>(key_range / 4);
    const key_t hi = static_cast<key_t>(3 * key_range / 4);
    std::atomic<bool> stop{false};
    std::atomic<long long> churned[CHURNERS] = {};
    std::atomic<long long> scans{0};
    std::atomic<long long> keys_seen{0};
    std::atomic<bool> order_ok{true};

    std::vector<std::thread> threads;
    for (int t = 0; t < CHURNERS; ++t) {
        threads.emplace_back([&, t] {
            auto handle = mgr.register_thread(t);
            auto acc = mgr.access(handle);
            prng rng(1000 + static_cast<std::uint64_t>(t));
            while (!stop.load(std::memory_order_acquire)) {
                const key_t k = static_cast<key_t>(
                    rng.next(static_cast<std::uint64_t>(key_range)));
                if (rng.next(2) == 0) {
                    ds.insert(acc, k, k * 3);
                } else {
                    ds.erase(acc, k);
                }
                churned[t].fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    threads.emplace_back([&] {
        auto handle = mgr.register_thread(CHURNERS);
        auto acc = mgr.access(handle);
        while (!stop.load(std::memory_order_acquire)) {
            // last/violated are atomics: the visitor runs inside
            // run_guarded under DEBRA+ and must be longjmp-tolerant.
            std::atomic<key_t> last{lo - 1};
            std::atomic<bool> violated{false};
            const long long n =
                ds.range_query(acc, lo, hi, [&](const key_t& k, const val_t& v) {
                    if (k < lo || k > hi || v != k * 3 ||
                        k <= last.load(std::memory_order_relaxed)) {
                        violated.store(true, std::memory_order_relaxed);
                    }
                    last.store(k, std::memory_order_relaxed);
                    return true;
                });
            if (violated.load(std::memory_order_relaxed)) {
                order_ok.store(false, std::memory_order_relaxed);
            }
            keys_seen.fetch_add(n, std::memory_order_relaxed);
            scans.fetch_add(1, std::memory_order_relaxed);
        }
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    const auto progressed = [&] {
        for (const auto& c : churned) {
            if (c.load(std::memory_order_relaxed) < CHURN_OPS) return false;
        }
        return keys_seen.load(std::memory_order_relaxed) > 0;
    };
    const auto cap =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!progressed() && std::chrono::steady_clock::now() < cap) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(progressed()) << "no churn or scan progress within 60 s";
    stop.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();

    EXPECT_TRUE(order_ok.load()) << "scan delivered out-of-range, "
                                    "out-of-order, or corrupt keys";
    EXPECT_GT(scans.load(), 0);
    EXPECT_GT(keys_seen.load(), 0);
}

TYPED_TEST(RangeQueryTyped, EllenBstChurnScan) {
    using S = TypeParam;
    if (skip_leaky_cell<S>()) GTEST_SKIP() << "'none' leaks by design";
    using mgr_t = testutil::bst_mgr<S>;
    mgr_t mgr(3, fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    churn_scan(mgr, bst, 512);
}

TYPED_TEST(RangeQueryTyped, HarrisListChurnScan) {
    using S = TypeParam;
    if (skip_leaky_cell<S>()) GTEST_SKIP() << "'none' leaks by design";
    if constexpr (S::supports_crash_recovery) {
        GTEST_SKIP() << "harris_list carries no neutralization recovery";
    } else {
        using mgr_t = testutil::list_mgr<S>;
        mgr_t mgr(3, fast_config<mgr_t>());
        ds::harris_list<key_t, val_t, mgr_t> list(mgr);
        churn_scan(mgr, list, 256);
    }
}

TYPED_TEST(RangeQueryTyped, LazySkiplistChurnScan) {
    using S = TypeParam;
    if (skip_leaky_cell<S>()) GTEST_SKIP() << "'none' leaks by design";
    if constexpr (S::supports_crash_recovery) {
        GTEST_SKIP() << "lazy_skiplist carries no neutralization recovery";
    } else {
        using mgr_t = testutil::skip_mgr<S>;
        mgr_t mgr(3, fast_config<mgr_t>());
        ds::lazy_skiplist<key_t, val_t, mgr_t> skip(mgr);
        churn_scan(mgr, skip, 512);
    }
}

TYPED_TEST(RangeQueryTyped, HashMapChurnScan) {
    using S = TypeParam;
    if (skip_leaky_cell<S>()) GTEST_SKIP() << "'none' leaks by design";
    if constexpr (S::supports_crash_recovery) {
        GTEST_SKIP() << "hash_map buckets carry no neutralization recovery";
    } else {
        using mgr_t = testutil::list_mgr<S>;
        mgr_t mgr(3, fast_config<mgr_t>());
        ds::hash_map<key_t, val_t, mgr_t> map(mgr, 16);
        churn_scan(mgr, map, 512);
    }
}

}  // namespace
}  // namespace smr
