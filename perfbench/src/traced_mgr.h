// traced_mgr.h -- a forwarding wrapper with record_manager's public
// interface that prices each layer call from outside the library.
//
// ellen_bst takes its record manager as a template argument, so the traced
// run instantiates the tree over traced_mgr<M> instead of M. Every call the
// tree (through accessor / guard_ptr / guard_span / run_guarded) makes into
// the manager lands here first and is forwarded unchanged. While sampling
// is on, one call in SAMPLE_EVERY per thread and site is timed with
// lat_clock; the empty-span clock cost is subtracted when the figures are
// reported (see clock_cost()). Nothing in src/ changes: the untraced run
// uses M directly.
//
// Sites:
//   bracket    leave_qstate + enter_qstate of one operation attempt (the
//              quiescence bracket, including any limbo rotation and pool
//              hand-off leave_qstate triggers);
//   protect    one per-access protection, validation included (HP only:
//              epoch schemes never reach the manager's protect);
//   unprotect  one protection release (guard or span);
//   retire     one retire() (bag add, plus HP's scan-and-free when due);
//   alloc      one allocate() (pool hand-off or bump refill).
//
// Signal safety: under DEBRA+ the bracket and rprotect calls run inside
// run_guarded bodies, where a neutralization siglongjmp may land anywhere.
// Per-thread timing state is single-writer and preallocated, and
// lat_hist::record is signal-safe, so a longjmp can at worst drop one
// sample.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <new>
#include <utility>

#include "recordmgr/record_manager.h"
#include "util/latency_hist.h"
#include "util/padded.h"

namespace perfbench {

enum class site : int { bracket, protect, unprotect, retire, alloc, COUNT };
inline constexpr int N_SITES = static_cast<int>(site::COUNT);
inline constexpr int MAX_WORKERS = 8;

/// Sampled timings of one site on one thread: a histogram for percentiles
/// plus an exact sum for the mean.
struct site_timing {
    smr::lat_hist hist;
    std::uint64_t sum_ns = 0;
    std::uint64_t count = 0;

    void record(std::uint64_t ns) noexcept {
        hist.record(ns);
        sum_ns += ns;
        ++count;
    }
};

/// Sampled timings of every site on one thread, plus the exact protect
/// call count (protects_per_op).
struct thread_timing {
    std::array<site_timing, N_SITES> sites{};
    std::array<std::uint32_t, N_SITES> ticks{};
    std::uint64_t protect_calls = 0;
    std::uint64_t leave_ns = 0;
    bool leave_sampled = false;
};

template <class Mgr>
class traced_mgr {
  public:
    static constexpr std::uint32_t SAMPLE_EVERY = 32;

    static constexpr const char* scheme_name = Mgr::scheme_name;
    static constexpr bool supports_crash_recovery = Mgr::supports_crash_recovery;
    static constexpr bool is_fault_tolerant = Mgr::is_fault_tolerant;
    static constexpr bool quiescence_based = Mgr::quiescence_based;
    static constexpr bool per_access_protection = Mgr::per_access_protection;

    using accessor_t = smr::accessor<traced_mgr>;
    template <class T>
    using guard_t = smr::guard_ptr<traced_mgr, T>;
    using span_t = smr::guard_span<traced_mgr>;

    explicit traced_mgr(Mgr& inner) : inner_(inner) {}
    traced_mgr(const traced_mgr&) = delete;
    traced_mgr& operator=(const traced_mgr&) = delete;

    /// Turns sampling on or off for every thread. Set between windows only
    /// (workers read it relaxed; the window start publishes it).
    void set_sampling(bool on) noexcept {
        sampling_.store(on, std::memory_order_relaxed);
    }
    const thread_timing& timing(int tid) const noexcept { return *t_[tid]; }

    // ---- quiescence ----------------------------------------------------

    bool leave_qstate(int tid) {
        thread_timing& t = *t_[tid];
        if (!due(t, site::bracket)) {
            t.leave_sampled = false;
            return inner_.leave_qstate(tid);
        }
        const std::uint64_t t0 = smr::lat_clock::now();
        const bool r = inner_.leave_qstate(tid);
        t.leave_ns = smr::lat_clock::now() - t0;
        t.leave_sampled = true;
        return r;
    }
    void enter_qstate(int tid) {
        thread_timing& t = *t_[tid];
        if (!t.leave_sampled) {
            inner_.enter_qstate(tid);
            return;
        }
        const std::uint64_t t0 = smr::lat_clock::now();
        inner_.enter_qstate(tid);
        const std::uint64_t ticks = t.leave_ns + (smr::lat_clock::now() - t0);
        t.leave_sampled = false;
        t.sites[static_cast<int>(site::bracket)].record(
            smr::lat_clock::to_nanos(ticks));
    }
    bool is_quiescent(int tid) const { return inner_.is_quiescent(tid); }

    // ---- record lifecycle ----------------------------------------------

    template <class T>
    T* allocate(int tid) {
        thread_timing& t = *t_[tid];
        if (!due(t, site::alloc)) return inner_.template allocate<T>(tid);
        const std::uint64_t t0 = smr::lat_clock::now();
        T* p = inner_.template allocate<T>(tid);
        stamp(t, site::alloc, t0);
        return p;
    }
    template <class T, class... Args>
    T* new_record(int tid, Args&&... args) {
        return ::new (static_cast<void*>(allocate<T>(tid)))
            T(std::forward<Args>(args)...);
    }
    template <class T>
    void deallocate(int tid, T* p) {
        inner_.deallocate(tid, p);
    }
    template <class T>
    void retire(int tid, T* p) {
        thread_timing& t = *t_[tid];
        if (!due(t, site::retire)) {
            inner_.retire(tid, p);
            return;
        }
        const std::uint64_t t0 = smr::lat_clock::now();
        inner_.retire(tid, p);
        stamp(t, site::retire, t0);
    }

    // ---- per-access protection -----------------------------------------

    template <class T, class ValidateFn>
    bool protect(int tid, T* p, ValidateFn&& validate) {
        thread_timing& t = *t_[tid];
        if (sampling_.load(std::memory_order_relaxed)) ++t.protect_calls;
        if (!due(t, site::protect)) {
            return inner_.protect(tid, p, std::forward<ValidateFn>(validate));
        }
        const std::uint64_t t0 = smr::lat_clock::now();
        const bool ok =
            inner_.protect(tid, p, std::forward<ValidateFn>(validate));
        stamp(t, site::protect, t0);
        return ok;
    }
    template <class T>
    bool protect(int tid, T* p) {
        return protect(tid, p, [] { return true; });
    }
    template <class T>
    void unprotect(int tid, T* p) {
        thread_timing& t = *t_[tid];
        if (!due(t, site::unprotect)) {
            inner_.unprotect(tid, p);
            return;
        }
        const std::uint64_t t0 = smr::lat_clock::now();
        inner_.unprotect(tid, p);
        stamp(t, site::unprotect, t0);
    }
    template <class T>
    bool is_protected(int tid, T* p) const {
        return inner_.is_protected(tid, p);
    }
    void clear_protections(int tid) { inner_.clear_protections(tid); }

    void guard_acquired(int tid) noexcept { inner_.guard_acquired(tid); }
    void guard_released(int tid) noexcept { inner_.guard_released(tid); }
    int live_guard_count(int tid) const noexcept {
        return inner_.live_guard_count(tid);
    }

    // ---- crash recovery --------------------------------------------------

    template <class T>
    bool rprotect(int tid, T* p) {
        return inner_.rprotect(tid, p);
    }
    void runprotect_all(int tid) { inner_.runprotect_all(tid); }
    template <class T>
    bool is_rprotected(int tid, T* p) const {
        return inner_.is_rprotected(tid, p);
    }
    /// The sigsetjmp lives in the inner run_op frame, which stays live
    /// while body and recovery run, so forwarding keeps DEBRA+ recovery
    /// intact.
    template <class BodyFn, class RecoveryFn>
    void run_op(int tid, BodyFn&& body, RecoveryFn&& recovery) {
        inner_.run_op(tid, body, recovery);
    }

    smr::debug_stats& stats() noexcept { return inner_.stats(); }
    int num_threads() const noexcept { return inner_.num_threads(); }

  private:
    bool due(thread_timing& t, site s) noexcept {
        if (!sampling_.load(std::memory_order_relaxed)) return false;
        return ++t.ticks[static_cast<int>(s)] % SAMPLE_EVERY == 0;
    }
    static void stamp(thread_timing& t, site s, std::uint64_t t0) noexcept {
        t.sites[static_cast<int>(s)].record(
            smr::lat_clock::to_nanos(smr::lat_clock::now() - t0));
    }

    Mgr& inner_;
    std::atomic<bool> sampling_{false};
    std::array<smr::padded<thread_timing>, MAX_WORKERS> t_{};
};

}  // namespace perfbench
