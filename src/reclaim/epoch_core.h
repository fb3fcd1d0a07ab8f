// epoch_core.h -- the epoch/announcement engine shared by classic EBR,
// DEBRA, and DEBRA+. It is DEBRA's and EBR's whole global state
// (reclaimer_debra.h names it directly); DEBRA+ derives from it and adds
// neutralization and recovery hazard pointers.
//
// One global epoch counter advances by 2 (the low bit of each announcement
// word is that thread's quiescent bit, the paper's "minor optimization").
// A thread's leaveQstate re-announces the current epoch and then checks the
// announcements of other threads:
//
//   * classic EBR mode (scan_all_per_op): keep checking until blocked on a
//     laggard or the epoch advances -- O(n) per operation;
//   * DEBRA mode: check exactly one announcement every `check_thresh`
//     operations, amortizing the scan across many operations and touching a
//     remote thread's (possibly cross-socket) line as rarely as possible.
//
// The epoch is incremented only after `incr_thresh` checks have passed since
// the last announcement change, which stops a lone thread from thrashing the
// epoch (paper Section 4, "Minor optimizations").
//
// A `suspect` hook decides what to do with a thread that is non-quiescent
// and behind the epoch: DEBRA's, the default, returns false (wait for it;
// not fault tolerant), DEBRA+ neutralizes it with a signal and returns true.
//
// Ordering table (DESIGN.md Section 11.4):
//   announce_[t]   seq_cst stores on the announce/quiesce edges, matching
//                  the paper's "announce then scan" fence: the epoch
//                  announcement must be totally ordered against other
//                  threads' announcement scans, or two threads could each
//                  miss the other and advance past a live reservation.
//                  Owner-side re-reads are relaxed (single writer).
//   epoch_         acquire loads (a thread adopting epoch e must see the
//                  retirements justifying e's safety), seq_cst CAS on
//                  advance (the advance is itself an announcement scan
//                  conclusion and orders against the stores above).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "../obs/event_ring.h"
#include "../util/debug_stats.h"
#include "../util/padded.h"

namespace smr::reclaim {

struct epoch_config {
    /// Check one announcement every this many leaveQstate calls (DEBRA) --
    /// the paper's CHECK_THRESH.
    int check_thresh = 3;
    /// Minimum announcement checks since the last epoch change before this
    /// thread may increment the epoch -- the paper's INCR_THRESH.
    int incr_thresh = 100;
    /// Classic-EBR behaviour: scan announcements until blocked, every op.
    bool scan_all_per_op = false;
};

class epoch_core {
  public:
    /// Announcement word layout: bit 0 = quiescent, bits 1.. = epoch.
    static constexpr std::uint64_t QUIESCENT_BIT = 1;

    epoch_core(int num_threads, const epoch_config& cfg, debug_stats* stats)
        : num_threads_(num_threads), cfg_(cfg), stats_(stats) {
        epoch_.store(2, std::memory_order_relaxed);
        for (int t = 0; t < MAX_THREADS; ++t)
            announce_[t]->store(QUIESCENT_BIT, std::memory_order_relaxed);
    }

    epoch_core(const epoch_core&) = delete;
    epoch_core& operator=(const epoch_core&) = delete;

    std::uint64_t read_epoch() const noexcept {
        return epoch_.load(std::memory_order_acquire);
    }

    std::uint64_t announcement(int tid) const noexcept {
        return announce_[tid]->load(std::memory_order_acquire);
    }

    bool is_quiescent(int tid) const noexcept {
        return announce_[tid]->load(std::memory_order_relaxed) & QUIESCENT_BIT;
    }

    void enter_qstate(int tid) noexcept {
        const std::uint64_t a = announce_[tid]->load(std::memory_order_relaxed);
        announce_[tid]->store(a | QUIESCENT_BIT, std::memory_order_seq_cst);
    }

    /// The announcement word, exposed so DEBRA+'s signal handler can test
    /// and set the quiescent bit from async-signal context.
    std::atomic<std::uint64_t>* announce_word(int tid) noexcept {
        return &*announce_[tid];
    }

    /// DEBRA's suspect rule: a non-quiescent laggard is waited for.
    struct wait_for_laggard {
        bool operator()(int) const noexcept { return false; }
    };

    /// Paper Figure 4 leaveQstate. `rotate` runs when this thread's
    /// announcement changes (its oldest limbo bag became safe). `suspect` is
    /// consulted for a thread blocking the epoch; returning true treats it
    /// as quiescent. Returns true iff the announcement changed.
    template <class RotateFn, class SuspectFn = wait_for_laggard>
    bool leave_qstate(int tid, RotateFn&& rotate, SuspectFn&& suspect = {}) {
        local& L = *locals_[tid];
        const std::uint64_t read_epoch = epoch_.load(std::memory_order_acquire);
        const std::uint64_t ann = announce_[tid]->load(std::memory_order_relaxed);
        bool result = false;
        if ((ann & ~QUIESCENT_BIT) != read_epoch) {
            L.ops_since_check = 0;
            L.check_next = 0;
            rotate();
            result = true;
        }
        if (++L.ops_since_check >= cfg_.check_thresh) {
            L.ops_since_check = 0;
            scan_step(tid, L, read_epoch, suspect);
        }
        // Announce the epoch we read with quiescent bit clear. seq_cst so a
        // reclaimer scanning announcements cannot order its scan ahead of
        // this store (the one fence DEBRA pays per operation).
        announce_[tid]->store(read_epoch, std::memory_order_seq_cst);
        return result;
    }

    int num_threads() const noexcept { return num_threads_; }

  private:
    struct local {
        long check_next = 0;      // next thread whose announcement to check
        long ops_since_check = 0; // leaveQstate calls since the last check
    };

    template <class SuspectFn>
    void scan_step(int tid, local& L, std::uint64_t read_epoch,
                   SuspectFn&& suspect) {
        do {
            const int other = static_cast<int>(L.check_next % num_threads_);
            const std::uint64_t oa =
                announce_[other]->load(std::memory_order_seq_cst);
            if (stats_) stats_->add(tid, stat::announcement_checks);
            const bool ok = ((oa & ~QUIESCENT_BIT) == read_epoch) ||
                            (oa & QUIESCENT_BIT) || suspect(other);
            if (!ok) return;  // stuck on `other`; retry it next time
            const long c = ++L.check_next;
            if (c >= num_threads_ && c >= cfg_.incr_thresh) {
                std::uint64_t expected = read_epoch;
                if (epoch_.compare_exchange_strong(expected, read_epoch + 2,
                                                   std::memory_order_seq_cst)) {
                    obs::instant(stats_, tid, obs::trace_event::epoch_advance,
                                 read_epoch + 2);
                }
                return;  // someone advanced the epoch; next leave re-reads it
            }
        } while (cfg_.scan_all_per_op);
    }

    const int num_threads_;
    const epoch_config cfg_;
    debug_stats* stats_;

    alignas(PREFETCH_LINE) std::atomic<std::uint64_t> epoch_;
    std::array<padded<std::atomic<std::uint64_t>>, MAX_THREADS> announce_;
    std::array<padded<local>, MAX_THREADS> locals_;
};

}  // namespace smr::reclaim
