// Dedicated tests for the lock-free hash map (src/ds/hash_map.h):
// concurrent insert/erase/contains under an epoch scheme (DEBRA) and an
// era scheme (2GE-IBR), exercising the map through both reclamation
// families the buckets' Harris lists support.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "ds/hash_map.h"
#include "ds_test_util.h"
#include "harness/workload.h"
#include "reclaim/era/reclaimer_ibr.h"

namespace smr {
namespace {

using testutil::fast_config;
using testutil::key_t;
using testutil::val_t;

using HashMapSchemes =
    ::testing::Types<reclaim::reclaim_debra, reclaim::reclaim_ibr>;

template <class Scheme>
class HashMapScheme : public ::testing::Test {
  protected:
    using mgr_t = testutil::list_mgr<Scheme>;
    using map_t = ds::hash_map<key_t, val_t, mgr_t>;

    HashMapScheme()
        : mgr_(4, fast_config<mgr_t>()), map_(mgr_, 32),
          h0_(mgr_.register_thread(0)) {}

    typename mgr_t::accessor_t acc() { return mgr_.access(h0_); }

    mgr_t mgr_;
    map_t map_;
    typename mgr_t::handle_t h0_;  // destroyed before mgr_ (reverse order)
};
TYPED_TEST_SUITE(HashMapScheme, HashMapSchemes);

TYPED_TEST(HashMapScheme, SingleThreadedDifferential) {
    EXPECT_EQ(testutil::differential_test(this->map_, this->acc(), 0x5eed, 6000, 256),
              6000);
}

TYPED_TEST(HashMapScheme, ConcurrentDisjointSlices) {
    // Each thread owns a key slice; every insert and erase must succeed,
    // and the map must be empty afterwards. Failures here mean a bucket
    // lost an update or reclaimed a reachable node.
    constexpr int THREADS = 4;
    this->h0_.reset();  // free tid 0 for the workers
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < THREADS; ++t) {
        workers.emplace_back([&, t] {
            auto handle = this->mgr_.register_thread(t);
            auto acc = this->mgr_.access(handle);
            const key_t base = t * 100000;
            for (int round = 0; round < 300; ++round) {
                for (key_t k = base; k < base + 16; ++k) {
                    if (!this->map_.insert(acc, k, k * 2)) ++failures;
                }
                for (key_t k = base; k < base + 16; ++k) {
                    if (this->map_.find(acc, k) != std::optional<val_t>(k * 2))
                        ++failures;
                }
                for (key_t k = base; k < base + 16; ++k) {
                    if (!this->map_.erase(acc, k).has_value()) ++failures;
                }
                for (key_t k = base; k < base + 16; ++k) {
                    if (this->map_.contains(acc, k)) ++failures;
                }
            }
        });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(this->map_.size_slow(), 0);
}

TYPED_TEST(HashMapScheme, ConcurrentContendedMixPreservesSize) {
    // All threads hammer the same small key range through the harness,
    // which tracks net successful inserts/erases and checks the final size
    // (the paper's benchmark-as-test invariant).
    harness::workload_config cfg;
    cfg.num_threads = 4;
    cfg.key_range = 128;
    cfg.insert_pct = 40;
    cfg.delete_pct = 40;
    cfg.trial_ms = 60;
    cfg.seed = 99;
    this->h0_.reset();  // run_trial registers its own handles, tid 0 first
    const auto r = harness::run_trial(this->map_, this->mgr_, cfg);
    EXPECT_TRUE(r.size_invariant_holds())
        << "final=" << r.final_size << " expected=" << r.expected_final_size;
    EXPECT_GT(r.total_ops, 0);
    EXPECT_GT(r.counters[stat::records_retired], 0u);
}

TYPED_TEST(HashMapScheme, ChurnRecyclesNodesAcrossBuckets) {
    // Node storage retired from one bucket's list must come back through
    // the shared manager pool.
    for (int i = 0; i < 4000; ++i) {
        const key_t k = i % 64;
        this->map_.insert(this->acc(), k, k);
        this->map_.erase(this->acc(), k);
    }
    EXPECT_EQ(this->map_.size_slow(), 0);
    EXPECT_GT(this->mgr_.stats().total(stat::records_pooled) +
                  this->mgr_.stats().total(stat::records_reused),
              0u);
}

}  // namespace
}  // namespace smr
