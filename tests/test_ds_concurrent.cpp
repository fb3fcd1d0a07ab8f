// Concurrent stress tests for all three data structures under every
// compatible reclamation scheme. Each test runs a mixed workload and then
// checks the net-size invariant (successful inserts minus successful
// erases must equal the final size) plus structural validation. On a
// single-core host the scheduler provides the interleavings; thread counts
// above the core count are intentional (the paper's oversubscription
// regime).
#include <gtest/gtest.h>
#include <pthread.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "ds_test_util.h"
#include "sanitizer_util.h"
#include "util/barrier.h"

namespace smr {
namespace {

using testutil::key_t;
using testutil::val_t;

struct stress_cfg {
    int threads = 4;
    int ops_per_thread = 8000;
    key_t key_range = 64;
};

/// Base of the typed suites: the 'none' scheme leaks every retired record
/// by design, so its cells skip when LeakSanitizer is watching.
template <class Scheme>
class SchemeStress : public ::testing::Test {
  protected:
    void SetUp() override {
        if (testutil::skip_leaky_cell<Scheme>()) {
            GTEST_SKIP() << "'none' leaks by design";
        }
    }
};

/// Runs the mixed workload; returns net keys added (sum over threads).
template <class DS, class Mgr>
long long run_stress(DS& ds, Mgr& mgr, const stress_cfg& cfg) {
    std::vector<std::thread> workers;
    std::vector<long long> net(static_cast<std::size_t>(cfg.threads), 0);
    spin_barrier start(static_cast<std::uint32_t>(cfg.threads));
    for (int t = 0; t < cfg.threads; ++t) {
        workers.emplace_back([&, t] {
            auto handle = mgr.register_thread(t);
            auto acc = mgr.access(handle);
            prng rng(1000 + static_cast<std::uint64_t>(t));
            start.arrive_and_wait();
            long long mine = 0;
            for (int i = 0; i < cfg.ops_per_thread; ++i) {
                const key_t k = static_cast<key_t>(
                    rng.next(static_cast<std::uint64_t>(cfg.key_range)));
                const auto dice = rng.next(100);
                if (dice < 40) {
                    if (ds.insert(acc, k, k)) ++mine;
                } else if (dice < 80) {
                    if (ds.erase(acc, k).has_value()) --mine;
                } else {
                    (void)ds.contains(acc, k);
                }
            }
            net[static_cast<std::size_t>(t)] = mine;
        });
    }
    for (auto& w : workers) w.join();
    long long total = 0;
    for (long long n : net) total += n;
    return total;
}

// ---- list ------------------------------------------------------------------

template <class Scheme>
class ListStress : public SchemeStress<Scheme> {};
using ListSchemes = ::testing::Types<reclaim::reclaim_none,
                                     reclaim::reclaim_debra,
                                     reclaim::reclaim_ebr, reclaim::reclaim_hp>;
TYPED_TEST_SUITE(ListStress, ListSchemes);

TYPED_TEST(ListStress, MixedWorkloadSizeInvariant) {
    using mgr_t = testutil::list_mgr<TypeParam>;
    stress_cfg cfg;
    mgr_t mgr(cfg.threads, testutil::fast_config<mgr_t>());
    ds::harris_list<key_t, val_t, mgr_t> list(mgr);
    const long long net = run_stress(list, mgr, cfg);
    EXPECT_EQ(list.size_slow(), net);
}

// ---- BST (including DEBRA+) --------------------------------------------------

template <class Scheme>
class BstStress : public SchemeStress<Scheme> {};
using BstSchemes =
    ::testing::Types<reclaim::reclaim_none, reclaim::reclaim_debra,
                     reclaim::reclaim_ebr, reclaim::reclaim_debra_plus,
                     reclaim::reclaim_hp>;
TYPED_TEST_SUITE(BstStress, BstSchemes);

TYPED_TEST(BstStress, MixedWorkloadSizeInvariant) {
    using mgr_t = testutil::bst_mgr<TypeParam>;
    stress_cfg cfg;
    mgr_t mgr(cfg.threads, testutil::fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    const long long net = run_stress(bst, mgr, cfg);
    EXPECT_EQ(bst.size_slow(), net);
    EXPECT_TRUE(bst.validate_structure());
}

TYPED_TEST(BstStress, HighContentionTinyKeyRange) {
    using mgr_t = testutil::bst_mgr<TypeParam>;
    stress_cfg cfg;
    cfg.key_range = 4;  // maximal helping / flag contention
    cfg.ops_per_thread = 4000;
    mgr_t mgr(cfg.threads, testutil::fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    const long long net = run_stress(bst, mgr, cfg);
    EXPECT_EQ(bst.size_slow(), net);
    EXPECT_TRUE(bst.validate_structure());
}

TYPED_TEST(BstStress, OversubscribedThreads) {
    using mgr_t = testutil::bst_mgr<TypeParam>;
    stress_cfg cfg;
    cfg.threads = 8;  // far beyond this host's core count
    cfg.ops_per_thread = 2500;
    mgr_t mgr(cfg.threads, testutil::fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    const long long net = run_stress(bst, mgr, cfg);
    EXPECT_EQ(bst.size_slow(), net);
    EXPECT_TRUE(bst.validate_structure());
}

// ---- skip list ------------------------------------------------------------------

template <class Scheme>
class SkipStress : public SchemeStress<Scheme> {};
using SkipSchemes = ::testing::Types<reclaim::reclaim_none,
                                     reclaim::reclaim_debra,
                                     reclaim::reclaim_ebr, reclaim::reclaim_hp>;
TYPED_TEST_SUITE(SkipStress, SkipSchemes);

TYPED_TEST(SkipStress, MixedWorkloadSizeInvariant) {
    using mgr_t = testutil::skip_mgr<TypeParam>;
    stress_cfg cfg;
    cfg.ops_per_thread = 5000;
    mgr_t mgr(cfg.threads, testutil::fast_config<mgr_t>());
    ds::lazy_skiplist<key_t, val_t, mgr_t> skip(mgr);
    const long long net = run_stress(skip, mgr, cfg);
    EXPECT_EQ(skip.size_slow(), net);
    EXPECT_TRUE(skip.validate_structure());
}

TYPED_TEST(SkipStress, InsertOnlyThenDrainConcurrently) {
    using mgr_t = testutil::skip_mgr<TypeParam>;
    constexpr int THREADS = 4;
    constexpr key_t RANGE = 512;
    mgr_t mgr(THREADS, testutil::fast_config<mgr_t>());
    ds::lazy_skiplist<key_t, val_t, mgr_t> skip(mgr);

    // Phase 1: concurrent disjoint inserts.
    {
        std::vector<std::thread> workers;
        for (int t = 0; t < THREADS; ++t) {
            workers.emplace_back([&, t] {
                auto handle = mgr.register_thread(t);
                auto acc = mgr.access(handle);
                for (key_t k = t; k < RANGE; k += THREADS) {
                    EXPECT_TRUE(skip.insert(acc, k, k));
                }
            });
        }
        for (auto& w : workers) w.join();
    }
    EXPECT_EQ(skip.size_slow(), RANGE);
    EXPECT_TRUE(skip.validate_structure());

    // Phase 2: concurrent competing erases; each key erased exactly once.
    std::atomic<long long> erased{0};
    {
        std::vector<std::thread> workers;
        for (int t = 0; t < THREADS; ++t) {
            workers.emplace_back([&, t] {
                auto handle = mgr.register_thread(t);
                auto acc = mgr.access(handle);
                for (key_t k = 0; k < RANGE; ++k) {
                    if (skip.erase(acc, k).has_value()) erased.fetch_add(1);
                }
            });
        }
        for (auto& w : workers) w.join();
    }
    EXPECT_EQ(erased.load(), RANGE);
    EXPECT_EQ(skip.size_slow(), 0);
    EXPECT_TRUE(skip.validate_structure());
}

// ---- cross-structure: disjoint-key linearizability-ish check ------------------

TYPED_TEST(BstStress, DisjointKeysNeverInterfere) {
    // Each thread owns a key slice and mutates only its own keys; other
    // threads' operations must never disturb them.
    using mgr_t = testutil::bst_mgr<TypeParam>;
    constexpr int THREADS = 4;
    mgr_t mgr(THREADS, testutil::fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    std::atomic<bool> failed{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < THREADS; ++t) {
        workers.emplace_back([&, t] {
            auto handle = mgr.register_thread(t);
            auto acc = mgr.access(handle);
            const key_t base = static_cast<key_t>(t) * 1000;
            for (int round = 0; round < 300; ++round) {
                for (key_t k = base; k < base + 8; ++k) {
                    if (!bst.insert(acc, k, k)) failed = true;
                }
                for (key_t k = base; k < base + 8; ++k) {
                    if (!bst.contains(acc, k)) failed = true;
                }
                for (key_t k = base; k < base + 8; ++k) {
                    if (!bst.erase(acc, k).has_value()) failed = true;
                }
            }
        });
    }
    for (auto& w : workers) w.join();
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(bst.size_slow(), 0);
}

// ---- BST under a DEBRA+ neutralization storm ------------------------------

TEST(BstNeutralizationStorm, EveryRecoveryKeepsTheSetExact) {
    // The scheme's own suspect signals rarely land inside an update, so
    // the recovery decisions (did the flag CAS land? did a helper finish
    // the operation?) would go untested. Here the test thread signals a
    // random worker once per two completed operations until 2,000
    // signals have landed mid-operation. The pacing follows progress,
    // not time: a fixed-rate storm can stop all progress.
    using mgr_t = testutil::bst_mgr<reclaim::reclaim_debra_plus>;
    constexpr int THREADS = 4;
    constexpr key_t KEYS = 16;
    constexpr std::uint64_t RECOVERIES = 2000;
    mgr_t mgr(THREADS, testutil::fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);

    std::atomic<bool> stop{false};
    std::atomic<long long> completed{0};
    std::vector<long long> net(THREADS, 0);
    std::vector<pthread_t> ids(THREADS);
    spin_barrier ready(THREADS + 1);
    std::vector<std::thread> workers;
    for (int t = 0; t < THREADS; ++t) {
        workers.emplace_back([&, t] {
            auto handle = mgr.register_thread(t);
            auto acc = mgr.access(handle);
            ids[static_cast<std::size_t>(t)] = pthread_self();
            prng rng(7000 + static_cast<std::uint64_t>(t));
            ready.arrive_and_wait();
            long long mine = 0;
            while (!stop.load(std::memory_order_acquire)) {
                const key_t k = static_cast<key_t>(
                    rng.next(static_cast<std::uint64_t>(KEYS)));
                const auto dice = rng.next(100);
                if (dice < 40) {
                    if (bst.insert(acc, k, k)) ++mine;
                } else if (dice < 80) {
                    if (bst.erase(acc, k).has_value()) --mine;
                } else {
                    (void)bst.contains(acc, k);
                }
                completed.fetch_add(1, std::memory_order_relaxed);
            }
            net[static_cast<std::size_t>(t)] = mine;
        });
    }

    ready.arrive_and_wait();
    prng pick(42);
    const auto cap =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    bool capped = false;
    long long signalled_at = 0;
    while (mgr.stats().total(stat::neutralize_signals_received) <
           RECOVERIES) {
        if (std::chrono::steady_clock::now() > cap) {
            capped = true;
            break;
        }
        const long long now = completed.load(std::memory_order_relaxed);
        if (now - signalled_at < 2) {
            std::this_thread::yield();
            continue;
        }
        signalled_at = now;
        pthread_kill(ids[static_cast<std::size_t>(pick.next(THREADS))],
                     reclaim::NEUTRALIZE_SIGNAL);
    }
    // The storm ends before any worker leaves its loop, so no signal can
    // reach a thread that has deregistered or exited.
    stop.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();

    EXPECT_FALSE(capped) << "fewer than " << RECOVERIES
                         << " recoveries within 20 s";
    const std::uint64_t landed =
        mgr.stats().total(stat::neutralize_signals_received);
    EXPECT_GE(landed, RECOVERIES);
    // Every signal that lands mid-operation runs exactly one recovery.
    EXPECT_EQ(mgr.stats().stall_summary(stall_site::neutralize).count, landed);
    long long total = 0;
    for (long long n : net) total += n;
    EXPECT_EQ(bst.size_slow(), total);
    EXPECT_TRUE(bst.validate_structure());
}

}  // namespace
}  // namespace smr
