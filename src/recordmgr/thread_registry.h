// thread_registry.h -- lock-free tid slot registry and the thread_handle
// RAII registration type.
//
// The record_manager back-end identifies threads by dense integer ids in
// [0, num_threads). The seed API made every caller invent those ids by
// hand and pair init_thread/deinit_thread manually -- the exact bug class
// (double deinit, tid collision, deinit on the wrong thread) the RAII
// layer retires. Two pieces:
//
//   * thread_registry -- a fixed array of lock-free slot flags. acquire()
//     returns the smallest free tid; release() returns it. One CAS per
//     registration; no allocation, no locks.
//   * thread_handle<Mgr> -- RAII registration: the constructor acquires a
//     tid (or claims an explicitly requested one) and runs
//     mgr.init_thread() on the calling thread; the destructor runs
//     deinit_thread and frees the slot. Move-only.
//
// DEBRA+ deinit discipline: the seed required every exiting thread to
// synchronize on an external barrier after deinit_thread, because a
// laggard scanner could still pthread_kill it. That obligation is now
// discharged inside the scheme itself (see reclaimer_debra_plus.h:
// deinit_thread drains the per-target signal gate), so destroying a
// thread_handle is sufficient: once the destructor returns, the thread may
// exit.
//
// Threading contract: a thread_handle must be constructed and destroyed on
// the thread that uses it (init/deinit register thread-local signal state
// and pthread identity). Moving it to another thread is a contract
// violation for neutralization-capable schemes.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "../topo/pin.h"
#include "../util/debug_stats.h"
#include "../util/padded.h"
#include "guards.h"

namespace smr {

/// Aborts with a diagnostic unless `tid` lies in [0, num_threads). An
/// out-of-range tid would index past the manager's and its scheme's
/// per-thread arrays, so every build stops here, as it does on registry
/// exhaustion and on a double claim.
inline void require_tid_in_range(const char* who, int tid, int num_threads) {
    if (tid >= 0 && tid < num_threads) return;
    std::fprintf(stderr, "%s: tid %d is outside [0, num_threads=%d)\n", who,
                 tid, num_threads);
    std::abort();
}

/// Returns `num_threads` if it lies in [1, MAX_THREADS] and aborts with a
/// diagnostic otherwise. A record_manager and its scheme size their
/// per-thread arrays at MAX_THREADS, so a larger count would configure,
/// scan and harvest past their ends; every build stops here instead.
inline int require_thread_count(int num_threads) {
    if (num_threads >= 1 && num_threads <= MAX_THREADS) return num_threads;
    std::fprintf(stderr,
                 "record_manager: num_threads=%d is outside "
                 "[1, MAX_THREADS=%d]\n",
                 num_threads, MAX_THREADS);
    std::abort();
}

/// Lock-free free-list of thread ids. One per record_manager instance;
/// slots beyond the manager's num_threads are never handed out.
class thread_registry {
  public:
    /// Claims the smallest free tid below `limit`. Registry exhaustion is a
    /// configuration error (more live threads than the manager was built
    /// for) and aborts with a diagnostic rather than corrupting a stranger
    /// thread's state.
    int acquire(int limit) {
        for (int tid = 0; tid < limit; ++tid) {
            if (try_acquire(tid)) return tid;
        }
        std::fprintf(stderr,
                     "thread_registry: no free tid (num_threads=%d); "
                     "construct the record_manager with more threads\n",
                     limit);
        std::abort();
    }

    /// Claims a specific tid; false if another handle holds it. A tid
    /// beyond the slot array aborts in every build.
    bool try_acquire(int tid) {
        require_tid_in_range("thread_registry", tid, MAX_THREADS);
        bool expected = false;
        return slots_[tid]->compare_exchange_strong(
            expected, true, std::memory_order_acq_rel);
    }

    void release(int tid) {
        slots_[tid]->store(false, std::memory_order_release);
    }

    bool in_use(int tid) const {
        return slots_[tid]->load(std::memory_order_acquire);
    }

  private:
    std::array<padded<std::atomic<bool>>, MAX_THREADS> slots_{};
};

/// RAII thread registration against a record_manager. Construction
/// registers the calling thread (auto-assigning a tid unless one is
/// requested); destruction deregisters it. The handle is the capability
/// from which accessors are minted: mgr.access(handle).
template <class Mgr>
class thread_handle {
  public:
    /// Registers the calling thread under the smallest free tid.
    explicit thread_handle(Mgr& mgr)
        : mgr_(&mgr), tid_(mgr.registry().acquire(mgr.num_threads())) {
        mgr_->init_thread(tid_);
    }

    /// Registers the calling thread under a caller-chosen tid -- for
    /// harnesses and tests that index per-thread results by tid. Claiming
    /// a tid another live handle holds is a usage error and aborts (as
    /// registry exhaustion does): proceeding would have two threads write
    /// the same per-thread scheme state.
    thread_handle(Mgr& mgr, int tid) : mgr_(&mgr), tid_(claim_tid(mgr, tid)) {
        mgr_->init_thread(tid_);
    }

    /// Registration plus thread pinning (src/topo/pin.h): the calling
    /// thread is pinned per `pin` with its tid as the worker index, so
    /// compact/scatter layouts follow the tid order the harness assigns.
    /// The pin lands *between* tid acquisition and init_thread, so the
    /// scheme's per-thread state (hazard rows, limbo bags) is first
    /// touched on the pinned socket. Pinning is a placement hint -- it
    /// never fails registration.
    thread_handle(Mgr& mgr, int tid, topo::pin_policy pin)
        : mgr_(&mgr), tid_(claim_tid(mgr, tid)) {
        topo::apply_pin(pin, tid_);
        mgr_->init_thread(tid_);
    }

    thread_handle(const thread_handle&) = delete;
    thread_handle& operator=(const thread_handle&) = delete;

    thread_handle(thread_handle&& o) noexcept : mgr_(o.mgr_), tid_(o.tid_) {
        o.mgr_ = nullptr;
    }
    thread_handle& operator=(thread_handle&& o) noexcept {
        if (this != &o) {
            reset();
            mgr_ = o.mgr_;
            tid_ = o.tid_;
            o.mgr_ = nullptr;
        }
        return *this;
    }

    ~thread_handle() { reset(); }

    /// Deregisters early (idempotent). After this the tid may be claimed
    /// by another thread.
    void reset() noexcept {
        if (mgr_ == nullptr) return;
        mgr_->deinit_thread(tid_);
        mgr_->registry().release(tid_);
        mgr_ = nullptr;
    }

    bool engaged() const noexcept { return mgr_ != nullptr; }
    int tid() const noexcept { return tid_; }
    Mgr& manager() const noexcept { return *mgr_; }

    /// The accessor bound to this registration.
    accessor<Mgr> access() const {
        assert(engaged());
        return accessor<Mgr>(*mgr_, tid_);
    }

    /// Handles convert to accessors so data structure calls read
    /// `ds.insert(handle, k, v)` without an explicit mint step.
    operator accessor<Mgr>() const { return access(); }

  private:
    /// Claims a caller-chosen tid; a tid outside the manager or one another
    /// live handle holds is a usage error and aborts (as registry
    /// exhaustion does): proceeding would have a thread write per-thread
    /// scheme state that is not its own.
    static int claim_tid(Mgr& mgr, int tid) {
        require_tid_in_range("thread_handle", tid, mgr.num_threads());
        if (!mgr.registry().try_acquire(tid)) {
            std::fprintf(stderr,
                         "thread_handle: tid %d is already held by another "
                         "live thread_handle\n",
                         tid);
            std::abort();
        }
        return tid;
    }

    Mgr* mgr_ = nullptr;
    int tid_ = 0;
};

}  // namespace smr
