// Tests for the auxiliary lock-free structures built on the Record
// Manager: Treiber stack, Michael-Scott queue, and the hash map composed
// from Harris-list buckets -- the classic SMR client structures, typed
// across every compatible reclamation scheme.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "ds/hash_map.h"
#include "ds/ms_queue.h"
#include "ds/treiber_stack.h"
#include "recordmgr/record_manager.h"
#include "reclaim/reclaimer_debra.h"
#include "reclaim/reclaimer_hp.h"
#include "reclaim/reclaimer_none.h"
#include "util/prng.h"

namespace smr {
namespace {

using Schemes = ::testing::Types<reclaim::reclaim_none, reclaim::reclaim_debra,
                                 reclaim::reclaim_ebr, reclaim::reclaim_hp>;

template <class Mgr>
typename Mgr::config_t fast_config() {
    auto cfg = Mgr::default_config();
    if constexpr (requires { cfg.check_thresh; }) {
        cfg.check_thresh = 1;
        cfg.incr_thresh = 1;
    }
    return cfg;
}

// ---- Treiber stack ----------------------------------------------------------

template <class Scheme>
class StackTyped : public ::testing::Test {
  protected:
    using mgr_t = record_manager<Scheme, alloc_malloc, pool_shared,
                                 ds::stack_node<long>>;
    using stack_t = ds::treiber_stack<long, mgr_t>;

    StackTyped()
        : mgr_(4, fast_config<mgr_t>()), stack_(mgr_),
          h0_(mgr_.register_thread(0)) {}

    typename mgr_t::accessor_t acc() { return mgr_.access(h0_); }

    mgr_t mgr_;
    stack_t stack_;
    typename mgr_t::handle_t h0_;  // destroyed before mgr_ (reverse order)
};
TYPED_TEST_SUITE(StackTyped, Schemes);

TYPED_TEST(StackTyped, EmptyPopsNothing) {
    EXPECT_TRUE(this->stack_.empty());
    EXPECT_EQ(this->stack_.pop(this->acc()), std::nullopt);
    EXPECT_EQ(this->stack_.size_slow(), 0);
}

TYPED_TEST(StackTyped, LifoOrder) {
    for (long v = 0; v < 10; ++v) this->stack_.push(this->acc(), v);
    EXPECT_EQ(this->stack_.size_slow(), 10);
    for (long v = 9; v >= 0; --v) {
        EXPECT_EQ(this->stack_.pop(this->acc()), std::optional<long>(v));
    }
    EXPECT_TRUE(this->stack_.empty());
}

TYPED_TEST(StackTyped, ChurnRecyclesNodes) {
    for (int i = 0; i < 3000; ++i) {
        this->stack_.push(this->acc(), i);
        this->stack_.pop(this->acc());
    }
    EXPECT_TRUE(this->stack_.empty());
    if (std::string(TypeParam::name) != "none") {
        EXPECT_GT(this->mgr_.stats().total(stat::records_pooled) +
                      this->mgr_.stats().total(stat::records_reused),
                  0u);
    }
}

TYPED_TEST(StackTyped, ConcurrentPushPopConservesElements) {
    constexpr int THREADS = 4;
    constexpr int PER_THREAD = 4000;
    this->h0_.reset();  // free tid 0 for the workers
    std::atomic<long long> popped_sum{0};
    std::atomic<long long> popped_count{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < THREADS; ++t) {
        workers.emplace_back([&, t] {
            auto handle = this->mgr_.register_thread(t);
            auto acc = this->mgr_.access(handle);
            prng rng(static_cast<std::uint64_t>(t) + 3);
            long long my_sum = 0, my_count = 0;
            for (int i = 0; i < PER_THREAD; ++i) {
                this->stack_.push(acc, t * PER_THREAD + i);
                if (rng.chance_percent(80)) {
                    auto v = this->stack_.pop(acc);
                    if (v) {
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
    auto drain_handle = this->mgr_.register_thread(0);
    auto drain_acc = this->mgr_.access(drain_handle);
    // Drain the leftovers; total popped must be every pushed value once.
    long long drain_sum = 0, drain_count = 0;
    while (auto v = this->stack_.pop(drain_acc)) {
        drain_sum += *v;
        ++drain_count;
    }
    const long long total = static_cast<long long>(THREADS) * PER_THREAD;
    EXPECT_EQ(popped_count.load() + drain_count, total);
    long long expected_sum = 0;
    for (long long v = 0; v < total; ++v) expected_sum += v;
    EXPECT_EQ(popped_sum.load() + drain_sum, expected_sum);
}

// ---- Michael-Scott queue ------------------------------------------------------

template <class Scheme>
class QueueTyped : public ::testing::Test {
  protected:
    using mgr_t = record_manager<Scheme, alloc_malloc, pool_shared,
                                 ds::queue_node<long>>;
    using queue_t = ds::ms_queue<long, mgr_t>;

    QueueTyped()
        : mgr_(4, fast_config<mgr_t>()), queue_(mgr_),
          h0_(mgr_.register_thread(0)) {}

    typename mgr_t::accessor_t acc() { return mgr_.access(h0_); }

    mgr_t mgr_;
    queue_t queue_;
    typename mgr_t::handle_t h0_;  // destroyed before mgr_ (reverse order)
};
TYPED_TEST_SUITE(QueueTyped, Schemes);

TYPED_TEST(QueueTyped, EmptyDequeuesNothing) {
    EXPECT_TRUE(this->queue_.empty());
    EXPECT_EQ(this->queue_.dequeue(this->acc()), std::nullopt);
}

TYPED_TEST(QueueTyped, FifoOrder) {
    for (long v = 0; v < 20; ++v) this->queue_.enqueue(this->acc(), v);
    EXPECT_EQ(this->queue_.size_slow(), 20);
    for (long v = 0; v < 20; ++v) {
        EXPECT_EQ(this->queue_.dequeue(this->acc()), std::optional<long>(v));
    }
    EXPECT_TRUE(this->queue_.empty());
}

TYPED_TEST(QueueTyped, InterleavedEnqueueDequeue) {
    long next_in = 0, next_out = 0;
    prng rng(17);
    for (int step = 0; step < 5000; ++step) {
        if (rng.chance_percent(55)) {
            this->queue_.enqueue(this->acc(), next_in++);
        } else {
            auto v = this->queue_.dequeue(this->acc());
            if (next_out < next_in) {
                ASSERT_EQ(v, std::optional<long>(next_out));
                ++next_out;
            } else {
                ASSERT_EQ(v, std::nullopt);
            }
        }
    }
    EXPECT_EQ(this->queue_.size_slow(), next_in - next_out);
}

TYPED_TEST(QueueTyped, ConcurrentMpmcConservesElements) {
    constexpr int PRODUCERS = 2, CONSUMERS = 2;
    constexpr int PER_PRODUCER = 5000;
    this->h0_.reset();  // free tid 0 for the workers
    std::atomic<long long> consumed_sum{0};
    std::atomic<long long> consumed_count{0};
    std::atomic<int> producers_left{PRODUCERS};
    std::vector<std::thread> workers;
    for (int p = 0; p < PRODUCERS; ++p) {
        workers.emplace_back([&, p] {
            auto handle = this->mgr_.register_thread(p);
            auto acc = this->mgr_.access(handle);
            for (int i = 0; i < PER_PRODUCER; ++i) {
                this->queue_.enqueue(acc, p * PER_PRODUCER + i);
            }
            producers_left.fetch_sub(1);
        });
    }
    for (int c = 0; c < CONSUMERS; ++c) {
        workers.emplace_back([&, c] {
            auto handle = this->mgr_.register_thread(PRODUCERS + c);
            auto acc = this->mgr_.access(handle);
            // Read producers_left before dequeueing: an empty dequeue that
            // follows a 0 read came after every enqueue, so the queue is
            // drained.
            for (;;) {
                const bool producers_done = producers_left.load() == 0;
                auto v = this->queue_.dequeue(acc);
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
    }
    for (auto& w : workers) w.join();
    auto drain_handle = this->mgr_.register_thread(0);
    auto drain_acc = this->mgr_.access(drain_handle);
    // Per-producer FIFO order was already checked by FifoOrder; here we
    // check conservation: every enqueued value consumed exactly once.
    while (auto v = this->queue_.dequeue(drain_acc)) {
        consumed_sum.fetch_add(*v);
        consumed_count.fetch_add(1);
    }
    const long long total = static_cast<long long>(PRODUCERS) * PER_PRODUCER;
    EXPECT_EQ(consumed_count.load(), total);
    long long expected = 0;
    for (long long v = 0; v < total; ++v) expected += v;
    EXPECT_EQ(consumed_sum.load(), expected);
}

// ---- hash map -------------------------------------------------------------------

template <class Scheme>
class HashMapTyped : public ::testing::Test {
  protected:
    using mgr_t = record_manager<Scheme, alloc_malloc, pool_shared,
                                 ds::list_node<long, long>>;
    using map_t = ds::hash_map<long, long, mgr_t>;

    HashMapTyped()
        : mgr_(4, fast_config<mgr_t>()), map_(mgr_, 64),
          h0_(mgr_.register_thread(0)) {}

    typename mgr_t::accessor_t acc() { return mgr_.access(h0_); }

    mgr_t mgr_;
    map_t map_;
    typename mgr_t::handle_t h0_;  // destroyed before mgr_ (reverse order)
};
TYPED_TEST_SUITE(HashMapTyped, Schemes);

TYPED_TEST(HashMapTyped, BucketCountRoundsToPowerOfTwo) {
    EXPECT_EQ(this->map_.bucket_count(), 64u);
    typename TestFixture::map_t odd(this->mgr_, 100);
    EXPECT_EQ(odd.bucket_count(), 128u);
}

TYPED_TEST(HashMapTyped, InsertFindErase) {
    EXPECT_TRUE(this->map_.insert(this->acc(), 5, 50));
    EXPECT_EQ(this->map_.find(this->acc(), 5), std::optional<long>(50));
    EXPECT_FALSE(this->map_.insert(this->acc(), 5, 51));
    EXPECT_EQ(this->map_.erase(this->acc(), 5), std::optional<long>(50));
    EXPECT_FALSE(this->map_.contains(this->acc(), 5));
}

TYPED_TEST(HashMapTyped, ManyKeysAcrossBuckets) {
    for (long k = 0; k < 1000; ++k) {
        EXPECT_TRUE(this->map_.insert(this->acc(), k, k * 2));
    }
    EXPECT_EQ(this->map_.size_slow(), 1000);
    for (long k = 0; k < 1000; ++k) {
        EXPECT_EQ(this->map_.find(this->acc(), k), std::optional<long>(k * 2));
    }
    for (long k = 0; k < 1000; k += 2) {
        EXPECT_TRUE(this->map_.erase(this->acc(), k).has_value());
    }
    EXPECT_EQ(this->map_.size_slow(), 500);
}

TYPED_TEST(HashMapTyped, DifferentialAgainstStdMap) {
    std::map<long, long> model;
    prng rng(0x4a11);
    for (int i = 0; i < 5000; ++i) {
        const long k = static_cast<long>(rng.next(256));
        const auto dice = rng.next(100);
        if (dice < 40) {
            EXPECT_EQ(this->map_.insert(this->acc(), k, k * 3),
                      model.emplace(k, k * 3).second);
        } else if (dice < 70) {
            const auto it = model.find(k);
            const std::optional<long> expect =
                it == model.end() ? std::nullopt
                                  : std::optional<long>(it->second);
            if (it != model.end()) model.erase(it);
            EXPECT_EQ(this->map_.erase(this->acc(), k), expect);
        } else {
            EXPECT_EQ(this->map_.contains(this->acc(), k), model.count(k) > 0);
        }
    }
    EXPECT_EQ(this->map_.size_slow(), static_cast<long long>(model.size()));
}

TYPED_TEST(HashMapTyped, ConcurrentDisjointSlices) {
    constexpr int THREADS = 4;
    this->h0_.reset();  // free tid 0 for the workers
    std::vector<std::thread> workers;
    std::atomic<bool> failed{false};
    for (int t = 0; t < THREADS; ++t) {
        workers.emplace_back([&, t] {
            auto handle = this->mgr_.register_thread(t);
            auto acc = this->mgr_.access(handle);
            const long base = t * 10000;
            for (int round = 0; round < 200; ++round) {
                for (long k = base; k < base + 10; ++k) {
                    if (!this->map_.insert(acc, k, k)) failed = true;
                }
                for (long k = base; k < base + 10; ++k) {
                    if (!this->map_.erase(acc, k).has_value()) failed = true;
                }
            }
        });
    }
    for (auto& w : workers) w.join();
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(this->map_.size_slow(), 0);
}

}  // namespace
}  // namespace smr
