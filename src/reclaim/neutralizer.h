// neutralizer.h -- POSIX-signal neutralization (paper Section 5).
//
// DEBRA+'s fault tolerance rests on one mechanism: a thread that is blocking
// the epoch can be *neutralized* by sending it a signal. The signal handler
// runs on the target thread and
//
//   * if the target is quiescent: does nothing (the target was between
//     operations; treating it as quiescent was already sound);
//   * if the target is non-quiescent: sets its quiescent bit and siglongjmps
//     to the recovery point established by sigsetjmp at the top of the
//     current data structure operation.
//
// After pthread_kill returns, the sender may treat the target as quiescent
// immediately: the OS guarantees the target executes the handler before any
// further user-level step, so the target cannot touch a retired record until
// it runs recovery and leaves a quiescent state again.
//
// Async-signal safety: the handler reads and writes one lock-free atomic and
// calls siglongjmp -- both permitted in signal context. It never allocates,
// locks, or touches the bags.
//
// Contract for threads: register via arm()/disarm() around their lifetime
// (disarmed threads absorb stray signals harmlessly). No barrier is needed
// before thread exit: debra_plus_global::deinit_thread drains the thread's
// signal gate before it disarms, so once it returns no pthread_kill can
// still target the thread (see reclaimer_debra_plus.h).
#pragma once

#include <pthread.h>
#include <setjmp.h>
#include <signal.h>

#include <atomic>
#include <cstdint>

#include "../obs/event_ring.h"
#include "../util/debug_stats.h"

namespace smr::reclaim {

/// The signal commandeered for neutralization, as in the paper.
inline constexpr int NEUTRALIZE_SIGNAL = SIGQUIT;

/// Everything the handler needs, reachable from the signaled thread itself.
struct neutral_ctx {
    std::atomic<std::uint64_t>* announce = nullptr;  // quiescent bit = LSB
    sigjmp_buf env;                                  // recovery point
    debug_stats* stats = nullptr;
    int tid = 0;
};

/// One registration per thread, process-wide: a thread may be armed for at
/// most one DEBRA+ instance at a time.
inline thread_local neutral_ctx* tl_neutral_ctx = nullptr;

// smr-lint: signal-safe (the handler itself: lock-free atomics plus
// siglongjmp, both async-signal-safe; see the header comment)
inline void neutralize_handler(int /*signum*/) {
    neutral_ctx* c = tl_neutral_ctx;
    if (c == nullptr || c->announce == nullptr) return;  // disarmed: absorb
    const std::uint64_t a = c->announce->load(std::memory_order_seq_cst);
    if (a & 1) {
        // Quiescent: between operations, inside a preamble/postamble, or
        // already executing recovery. Resume as if nothing happened.
        obs::instant(c->stats, c->tid, obs::trace_event::neutralize_benign);
        return;
    }
    // Non-quiescent: enter a quiescent state and jump to recovery. The
    // event must precede the siglongjmp (nothing runs after it);
    // obs::instant is part of the signal-safe closure.
    c->announce->store(a | 1, std::memory_order_seq_cst);
    obs::instant(c->stats, c->tid, obs::trace_event::neutralize_handled);
    siglongjmp(c->env, 1);
}

/// Installs the handler (idempotent, first caller wins the race benignly).
inline void install_neutralize_handler() {
    struct sigaction sa = {};
    sa.sa_handler = &neutralize_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // no SA_RESTART: we want prompt delivery semantics
    sigaction(NEUTRALIZE_SIGNAL, &sa, nullptr);
}

inline void arm_neutralization(neutral_ctx* ctx) noexcept {
    tl_neutral_ctx = ctx;
}

inline void disarm_neutralization() noexcept { tl_neutral_ctx = nullptr; }

}  // namespace smr::reclaim
