// Tests for the per-thread lock-free event rings (src/obs/event_ring.h):
// record packing, drop-oldest accounting, the disabled-trace no-op path,
// the SPSC producer/consumer protocol under concurrency, the one-call
// instant() path, and the scan_free payload every scanning scheme sends.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/event_ring.h"
#include "reclaim/reclaimer_debra_plus.h"
#include "reclaim/reclaimer_hp.h"
#include "recordmgr/record_manager.h"

namespace smr {
namespace {

using obs::event_record;
using obs::event_ring;
using obs::trace_event;

TEST(EventRing, CapacityRoundsUpToPowerOfTwo) {
    EXPECT_EQ(event_ring(1).capacity(), event_ring::MIN_CAPACITY);
    EXPECT_EQ(event_ring(8).capacity(), 8u);
    EXPECT_EQ(event_ring(9).capacity(), 16u);
    EXPECT_EQ(event_ring(4096).capacity(), 4096u);
    EXPECT_EQ(event_ring(5000).capacity(), 8192u);
}

TEST(EventRing, RecordsRoundTripThroughPacking) {
    event_ring r(64);
    r.emit(trace_event::limbo_rotation, 7, 42, 99);
    r.emit(trace_event::scan_free, 7, 3, 0);
    std::vector<event_record> out;
    EXPECT_EQ(r.drain(&out), 2u);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].ev, trace_event::limbo_rotation);
    EXPECT_EQ(out[0].tid, 7);
    EXPECT_EQ(out[0].arg0, 42u);
    EXPECT_EQ(out[0].arg1, 99u);
    EXPECT_EQ(out[0].seq, 0u);
    EXPECT_EQ(out[1].ev, trace_event::scan_free);
    EXPECT_EQ(out[1].seq, 1u);
    // Timestamps are monotone per ring (single producer, one clock).
    EXPECT_LE(out[0].tsc, out[1].tsc);
    // A second drain finds nothing.
    EXPECT_EQ(r.drain(&out), 0u);
}

TEST(EventRing, DropOldestKeepsNewestAndCounts) {
    event_ring r(8);  // exactly MIN_CAPACITY
    for (int i = 0; i < 20; ++i) {
        r.emit(trace_event::epoch_advance, 0,
               static_cast<std::uint64_t>(i), 0);
    }
    EXPECT_EQ(r.emitted(), 20u);
    EXPECT_EQ(r.dropped(), 12u);  // 20 emitted - 8 slots
    std::vector<event_record> out;
    EXPECT_EQ(r.drain(&out), 8u);
    // The survivors are the newest 8, in emission order.
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].arg0, 12 + i);
        EXPECT_EQ(out[i].seq, 12 + i);
    }
}

TEST(EventRing, DrainInterleavesWithEmission) {
    event_ring r(16);
    std::vector<event_record> out;
    std::uint64_t next = 0;
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 5; ++i) {
            r.emit(trace_event::limbo_rotation, 1, next++, 0);
        }
        r.drain(&out);
    }
    ASSERT_EQ(out.size(), 50u);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].arg0, i);
    }
    EXPECT_EQ(r.dropped(), 0u);
}

// The SPSC contract under real concurrency: one producer emitting flat
// out, one consumer draining continuously. Every record is either
// delivered exactly once or counted as a producer-side drop -- no loss,
// no duplication, order preserved within the delivered subsequence.
TEST(EventRing, ConcurrentProducerConsumerAccountsForEveryRecord) {
#ifdef SMR_TSAN
    constexpr std::uint64_t N = 20000;
#else
    constexpr std::uint64_t N = 200000;
#endif
    event_ring r(64);  // small on purpose: force drops under load
    std::vector<event_record> out;
    std::thread consumer([&] {
        while (out.size() + r.dropped() < N) {
            r.drain(&out);
            std::this_thread::yield();
        }
    });
    for (std::uint64_t i = 0; i < N; ++i) {
        r.emit(trace_event::scan_free, 2, i, 0);
    }
    consumer.join();
    r.drain(&out);  // final sweep after the producer stopped
    EXPECT_EQ(out.size() + r.dropped(), N);
    // Delivered records are a strictly increasing subsequence of the
    // emission order (arg0 carries the emission index).
    for (std::size_t i = 1; i < out.size(); ++i) {
        EXPECT_LT(out[i - 1].arg0, out[i].arg0);
        EXPECT_LT(out[i - 1].seq, out[i].seq);
    }
}

// The reserve-first publication protocol: a nested signal-handler emit is
// modeled by a second producer thread. Because emit() reserves its index
// with a head CAS *before* touching the slot, an interrupted/concurrent
// emit can never rewrite a slot the other frame already published. (The
// pre-fix protocol wrote the slot words first and published afterwards:
// under this test it delivers the same record at two indices -- duplicate
// seq -- and silently loses the clobbered one.) The ring is sized to hold
// every record so no index is ever lapped: every emission must come back
// exactly once, in reservation order.
TEST(EventRing, ConcurrentEmitNeverClobbersAPublishedRecord) {
#ifdef SMR_TSAN
    constexpr std::uint64_t N = 8192;
#else
    constexpr std::uint64_t N = 65536;
#endif
    event_ring r(2 * N);  // no drops: every reservation stays live
    std::vector<event_record> out;
    std::atomic<bool> done{false};
    std::thread consumer([&] {
        while (!done.load(std::memory_order_acquire)) {
            r.drain(&out);
            std::this_thread::yield();
        }
    });
    auto produce = [&r](int tid) {
        for (std::uint64_t i = 0; i < N; ++i) {
            r.emit(trace_event::scan_free, tid, i, 0);
        }
    };
    std::thread second([&] { produce(3); });
    produce(2);
    second.join();
    done.store(true, std::memory_order_release);
    consumer.join();
    r.drain(&out);  // final sweep after both producers stopped
    EXPECT_EQ(r.emitted(), 2 * N);
    EXPECT_EQ(r.dropped(), 0u);
    ASSERT_EQ(out.size(), 2 * N);
    std::uint64_t last_arg[2] = {0, 0};
    for (std::size_t i = 0; i < out.size(); ++i) {
        // seq is the reservation index: contiguous, no duplicates.
        EXPECT_EQ(out[i].seq, i);
        if (i > 0) {
            EXPECT_LE(out[i - 1].tsc, out[i].tsc);
        }
        // Each producer's records arrive in its emission order.
        ASSERT_TRUE(out[i].tid == 2 || out[i].tid == 3);
        std::uint64_t& last = last_arg[out[i].tid - 2];
        EXPECT_EQ(out[i].arg0, last);
        ++last;
    }
    EXPECT_EQ(last_arg[0], N);
    EXPECT_EQ(last_arg[1], N);
}

TEST(EventTrace, DisabledTraceIsANoOpAndNullRing) {
    obs::event_trace tr;
    EXPECT_FALSE(tr.enabled());
    EXPECT_EQ(tr.ring(0), nullptr);
    EXPECT_EQ(tr.max_tids(), 0);
    tr.emit(0, trace_event::epoch_advance, 1, 2);  // must not crash
    EXPECT_EQ(tr.total_emitted(), 0u);
    EXPECT_EQ(tr.total_dropped(), 0u);
}

TEST(EventTrace, EnableEmitDrainDisable) {
    obs::event_trace tr;
    tr.enable(4, 32);
    EXPECT_TRUE(tr.enabled());
    EXPECT_EQ(tr.max_tids(), 4);
    tr.emit(0, trace_event::thread_register, 0, 0);
    tr.emit(3, trace_event::thread_register, 3, 0);
    tr.emit(99, trace_event::thread_register, 99, 0);  // out of range: no-op
    tr.emit(-1, trace_event::thread_register, 0, 0);   // negative: no-op
    EXPECT_EQ(tr.total_emitted(), 2u);
    std::vector<event_record> out;
    ASSERT_NE(tr.ring(0), nullptr);
    EXPECT_EQ(tr.ring(0)->drain(&out), 1u);
    ASSERT_NE(tr.ring(3), nullptr);
    EXPECT_EQ(tr.ring(3)->drain(&out), 1u);
    EXPECT_EQ(out[1].tid, 3);
    tr.disable();
    EXPECT_FALSE(tr.enabled());
    tr.emit(0, trace_event::thread_register, 0, 0);  // disabled again
    EXPECT_EQ(tr.total_emitted(), 0u);
}

TEST(EventTrace, GlobalTraceEmitHelperRespectsDisabled) {
    // The global is disabled by default in a fresh process; every
    // instrumented site reaches it unconditionally.
    ASSERT_FALSE(obs::g_event_trace.enabled());
    obs::trace_emit(0, trace_event::limbo_rotation, 1, 2);  // no-op
    obs::g_event_trace.enable(2, 16);
    obs::trace_emit(1, trace_event::limbo_rotation, 5, 6);
    std::vector<event_record> out;
    EXPECT_EQ(obs::g_event_trace.ring(1)->drain(&out), 1u);
    EXPECT_EQ(out[0].arg0, 5u);
    obs::g_event_trace.disable();
}

TEST(EventTrace, InstantBumpsTheEventCounterAndEmits) {
    debug_stats stats;
    obs::instant(&stats, 0, trace_event::epoch_advance, 7);  // tracing off
    EXPECT_EQ(stats.total(stat::epochs_advanced), 1u);
    obs::g_event_trace.enable(1, 16);
    obs::instant(&stats, 0, trace_event::neutralize_sent, 3);
    obs::instant(&stats, 0, trace_event::thread_register, 0);  // no counter
    obs::instant(nullptr, 0, trace_event::epoch_advance, 9);   // no stats
    std::vector<event_record> out;
    EXPECT_EQ(obs::g_event_trace.ring(0)->drain(&out), 3u);
    obs::g_event_trace.disable();
    EXPECT_EQ(out[0].ev, trace_event::neutralize_sent);
    EXPECT_EQ(out[0].arg0, 3u);
    EXPECT_EQ(out[2].arg0, 9u);
    EXPECT_EQ(stats.total(stat::neutralize_signals_sent), 1u);
    EXPECT_EQ(stats.total(stat::epochs_advanced), 1u);
}

/// The a0 of every scan_free record one thread's retires produce.
template <class Scheme>
std::vector<std::uint64_t> scan_free_payloads(int retires) {
    struct rec {
        long v;
    };
    using mgr_t = record_manager<Scheme, alloc_malloc, pool_shared, rec>;
    std::vector<event_record> out;
    obs::g_event_trace.enable(1, 1 << 12);
    {
        mgr_t mgr(1);
        mgr.init_thread(0);
        for (int i = 0; i < retires; ++i) {
            mgr.leave_qstate(0);
            mgr.retire(0, mgr.template new_record<rec>(0));
            mgr.enter_qstate(0);
            if (i % 256 == 0) obs::g_event_trace.ring(0)->drain(&out);
        }
        mgr.deinit_thread(0);
    }
    obs::g_event_trace.ring(0)->drain(&out);
    EXPECT_EQ(obs::g_event_trace.total_dropped(), 0u);
    obs::g_event_trace.disable();
    std::vector<std::uint64_t> a0;
    for (const event_record& e : out) {
        if (e.ev == trace_event::scan_free) a0.push_back(e.arg0);
    }
    return a0;
}

TEST(EventTrace, ScanFreePayloadIsBagSizeInRecords) {
    // event_table documents scan_free's a0 as the bag size. A scan only
    // runs on a bag holding at least one full block, so every payload in
    // records is >= B (a payload in blocks reads 2 or 3).
    const auto debra_plus =
        scan_free_payloads<reclaim::reclaim_debra_plus>(20000);
    const auto hp = scan_free_payloads<reclaim::reclaim_hp>(20000);
    ASSERT_FALSE(debra_plus.empty());
    ASSERT_FALSE(hp.empty());
    for (std::uint64_t a0 : debra_plus) {
        EXPECT_GE(a0, static_cast<std::uint64_t>(mem::DEFAULT_BLOCK_SIZE));
    }
    for (std::uint64_t a0 : hp) {
        EXPECT_GE(a0, static_cast<std::uint64_t>(mem::DEFAULT_BLOCK_SIZE));
    }
}

}  // namespace
}  // namespace smr
