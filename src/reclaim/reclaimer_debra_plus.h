// reclaimer_debra_plus.h -- DEBRA+: fault-tolerant distributed EBR
// (paper Section 5, Figure 6).
//
// DEBRA+ = DEBRA + three additions:
//
//  1. Neutralization. When a thread's current limbo bag exceeds
//     `suspect_threshold_blocks` and the epoch scan is blocked on a
//     non-quiescent laggard, the scanner signals the laggard
//     (suspectNeutralized). Once the signal is sent the laggard counts as
//     quiescent: the OS guarantees it executes the handler -- which enters a
//     quiescent state and siglongjmps to recovery -- before its next step.
//  2. Recovery hazard pointers. An operation RProtects the records its help
//     procedure may touch, then RProtects its descriptor last; recovery
//     checks isRProtected(descriptor) to decide between help(desc) and a
//     plain restart (paper Figure 5).
//  3. Scanning rotation. Because RProtected records must not be freed,
//     rotateAndReclaim hashes every thread's RProtected announcements,
//     partitions the limbo bag so protected records sit at the front, and
//     moves only the full blocks after the partition point to the pool --
//     expected amortized O(1) per record.
//
// Bound: with everything stalled-but-signalable, at most O(n * (c + nm))
// records wait in limbo bags (paper Section 5, "Complexity").
#pragma once

#include <pthread.h>
#include <sched.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "../mem/arraystack.h"
#include "../mem/block_pool.h"
#include "../mem/ptr_hashset.h"
#include "../obs/event_ring.h"
#include "../util/debug_stats.h"
#include "../util/padded.h"
#include "epoch_core.h"
#include "limbo_bags.h"
#include "neutralizer.h"

namespace smr::reclaim {

struct debra_plus_config {
    epoch_config epoch;
    /// Neutralize a laggard only when our own current limbo bag holds at
    /// least this many blocks (the paper's SUSPECT_THRESHOLD_IN_BLOCKS).
    int suspect_threshold_blocks = 2;
    /// Reclaim during rotation only when the bag holds at least this many
    /// blocks, so the RProtect scan amortizes (paper's scanThreshold).
    int scan_threshold_blocks = 2;
};

namespace detail {

/// DEBRA's epoch engine plus neutralization and recovery hazard pointers.
/// enter_qstate, is_quiescent, read_epoch and num_threads are epoch_core's
/// own; leave_qstate passes it the neutralizing suspect rule.
class debra_plus_global : public epoch_core {
  public:
    using config = debra_plus_config;
    static constexpr int RPROT_CAP = mem::RPROTECT_CAPACITY;

    debra_plus_global(int num_threads, const config& cfg, debug_stats* stats)
        : epoch_core(num_threads, cfg.epoch, stats), cfg_(cfg), stats_(stats) {
        install_neutralize_handler();
        for (auto& t : targets_) t->active.store(false, std::memory_order_relaxed);
    }

    /// Must run on the thread itself (registers pthread_t and the
    /// thread-local signal context).
    void init_thread(int tid) {
        target& t = *targets_[tid];
        t.pthread = pthread_self();
        t.ctx.announce = announce_word(tid);
        t.ctx.stats = stats_;
        t.ctx.tid = tid;
        arm_neutralization(&t.ctx);
        t.active.store(true, std::memory_order_seq_cst);
    }

    /// Deregisters the calling thread as a neutralization target. Once this
    /// returns, no scanner will pthread_kill this thread again, so the
    /// thread may exit immediately -- the seed's external "barrier after
    /// deinit" obligation is discharged here instead: scanners hold the
    /// target's signal gate across their pthread_kill, and this drains it
    /// after flipping `active` off. Any signal that raced in lands while we
    /// are still alive and is absorbed (we are quiescent); any scanner that
    /// arrives later re-reads `active` inside the gate and stands down.
    void deinit_thread(int tid) {
        target& t = *targets_[tid];
        t.active.store(false, std::memory_order_seq_cst);
        t.gate.drain();
        disarm_neutralization();
    }

    /// The sigsetjmp environment for `tid`'s current operation.
    sigjmp_buf& jmp_env(int tid) noexcept { return targets_[tid]->ctx.env; }

    /// Runs at the top of neutralization recovery: the thread longjmped out
    /// of the signal handler, so the kernel still has NEUTRALIZE_SIGNAL
    /// blocked for it; re-enable it so the thread stays neutralizable.
    /// (run_op uses sigsetjmp without mask saving to keep the hot path
    /// syscall-free; this syscall happens only when a signal actually
    /// landed.)
    // smr-lint: signal-safe (recovery-path root: sigemptyset/sigaddset/
    // pthread_sigmask are async-signal-safe per POSIX)
    void prepare_recovery(int /*tid*/) noexcept {
        sigset_t set;
        sigemptyset(&set);
        sigaddset(&set, NEUTRALIZE_SIGNAL);
        pthread_sigmask(SIG_UNBLOCK, &set, nullptr);
    }

    /// leaveQstate with the neutralizing suspect rule: `pressure` reports
    /// this thread's fullest current limbo bag, in blocks.
    template <class RotateFn, class PressureFn>
    bool leave_qstate(int tid, RotateFn&& rotate, PressureFn&& pressure) {
        return epoch_core::leave_qstate(tid, rotate, [&](int other) {
            return suspect_neutralized(tid, other, pressure);
        });
    }

    // ---- recovery hazard pointers (paper Figure 6) ----------------------
    bool rprotect(int tid, const void* p) noexcept {
        rprotected_[tid]->push(p);
        return true;
    }
    void runprotect_all(int tid) noexcept { rprotected_[tid]->clear(); }
    bool is_rprotected(int tid, const void* p) const noexcept {
        return rprotected_[tid]->contains(p);
    }

    /// Scanner side: hash every thread's RProtected slots into `out`.
    void collect_rprotected(mem::ptr_hashset& out) const {
        for (int t = 0; t < num_threads(); ++t)
            for (int i = 0; i < RPROT_CAP; ++i)
                out.insert(rprotected_[t]->read_slot(i));
    }

    std::size_t max_rprotected() const noexcept {
        return static_cast<std::size_t>(num_threads()) * RPROT_CAP;
    }

    const config& cfg() const noexcept { return cfg_; }

  private:
    /// Tiny spinlock serializing pthread_kill against target deinit, so a
    /// deregistering thread can prove no signal is in flight before it
    /// exits (dead threads must never receive one). Never held while
    /// non-quiescent: the suspecting thread acquires it inside
    /// leave_qstate, before its own quiescent bit is cleared, so a
    /// neutralization signal landing on the holder is absorbed rather than
    /// longjmping out of the critical section.
    struct signal_gate {
        std::atomic<bool> busy{false};
        void lock() noexcept {
            while (busy.exchange(true, std::memory_order_acquire)) {
                sched_yield();
            }
        }
        void unlock() noexcept { busy.store(false, std::memory_order_release); }
        /// Waits out any holder (deinit: after this, no kill is in flight).
        void drain() noexcept {
            lock();
            unlock();
        }
    };

    struct target {
        std::atomic<bool> active{false};
        pthread_t pthread{};
        signal_gate gate;
        neutral_ctx ctx;
    };

    /// Paper Figure 6 suspectNeutralized: signal `other` if our own limbo
    /// pressure warrants it. Returns true when `other` may be treated as
    /// quiescent (signal delivered, or thread de-registered). The kill runs
    /// under the target's signal gate; see deinit_thread.
    template <class PressureFn>
    bool suspect_neutralized(int tid, int other, PressureFn&& pressure) {
        if (pressure() < cfg_.suspect_threshold_blocks) return false;
        target& t = *targets_[other];
        if (!t.active.load(std::memory_order_seq_cst)) return true;
        t.gate.lock();
        if (t.active.load(std::memory_order_seq_cst) &&
            pthread_kill(t.pthread, NEUTRALIZE_SIGNAL) == 0) {
            obs::instant(stats_, tid, obs::trace_event::neutralize_sent,
                         static_cast<std::uint64_t>(other));
        }
        t.gate.unlock();
        return true;  // signaled, or already deregistered: quiescent either way
    }

    const config cfg_;
    debug_stats* stats_;
    std::array<padded<target>, MAX_THREADS> targets_;
    // arraystack<const void>: RProtect announcements are read-only
    // pointers end to end (scanners hash them, recovery compares them),
    // so no const_cast laundering on push.
    std::array<padded<mem::arraystack<const void, RPROT_CAP>>, MAX_THREADS>
        rprotected_;
};

}  // namespace detail

struct reclaim_debra_plus {
    static constexpr const char* name = "debra+";
    static constexpr bool supports_crash_recovery = true;
    static constexpr bool is_fault_tolerant = true;
    static constexpr bool quiescence_based = true;
    static constexpr bool per_access_protection = false;

    using config = debra_plus_config;
    using global_state = detail::debra_plus_global;

    template <class T, class Pool, int B = mem::DEFAULT_BLOCK_SIZE>
    class per_type : public limbo_bags<T, Pool, B> {
        using base = limbo_bags<T, Pool, B>;

      public:
        per_type(int num_threads, global_state& global, Pool& pool,
                 mem::block_pool_array<T, B>& bpools, debug_stats* stats)
            : base(num_threads, global, pool, bpools, stats), global_(global) {
            scan_sets_.reserve(static_cast<std::size_t>(num_threads));
            for (int t = 0; t < num_threads; ++t)
                scan_sets_.push_back(std::make_unique<mem::ptr_hashset>(
                    global.max_rprotected()));
        }

        /// Figure 6 rotateAndReclaim: rotate; if the (old) oldest bag is big
        /// enough, partition RProtected records to the front and free every
        /// full block after the partition point.
        void rotate_and_reclaim(int tid) {
            auto& st = *this->states_[tid];
            st.index = (st.index + 1) % 3;
            auto& bag = st.current();
            obs::instant(this->stats_, tid, obs::trace_event::limbo_rotation,
                         static_cast<std::uint64_t>(bag.size_in_blocks()));
            if (bag.size_in_blocks() < global_.cfg().scan_threshold_blocks)
                return;  // defer: records simply wait one more rotation

            // Past the deferral check this is DEBRA+'s scan-and-free pass
            // (RProtected partition), not the O(1) rotation: its event and
            // stall column are scan_free, with the HP/HE/IBR scans.
            obs::timed scanning(this->stats_, tid,
                                obs::trace_event::scan_free,
                                static_cast<std::uint64_t>(bag.size()));
            mem::ptr_hashset& scan_set = *scan_sets_[tid];
            scan_set.clear();
            global_.collect_rprotected(scan_set);
            this->pool_.accept_chain(tid, bag.take_unkept([&](T* p) {
                return scan_set.contains(p);
            }));
        }

      private:
        global_state& global_;
        std::vector<std::unique_ptr<mem::ptr_hashset>> scan_sets_;
    };
};

}  // namespace smr::reclaim
