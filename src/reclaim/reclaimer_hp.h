// reclaimer_hp.h -- hazard pointers (Michael 2004), tuned for throughput as
// in the paper's comparison.
//
// Before dereferencing a record (or using its address as a CAS expected
// value), a thread announces it in one of its K hazard slots, issues a full
// fence, and then *validates* that the record is still safe via a
// data-structure-supplied predicate. Validation failure means the operation
// must behave as if it lost a race (typically restart) -- the paper's
// Section 3 explains why this breaks lock-free progress for structures that
// traverse retired-to-retired pointers; we reproduce the practical
// restart-on-suspicion behaviour the paper measures.
//
// Retired records collect in per-thread bags; when a bag reaches
// 2nK + O(B) records, the thread hashes all nK hazard slots (O(1) expected
// membership tests) and frees every unprotected record -- at least half the
// bag -- giving O(1) expected amortized retirement (Section 3, "Hazard
// Pointers"). The bag is scan_bag.h, shared with HE and IBR; its partition
// pass is DEBRA+'s rotation scan, so reclamation still moves whole blocks.
#pragma once

#include <array>
#include <atomic>

#include "../mem/block_pool.h"
#include "../mem/ptr_hashset.h"
#include "../util/debug_stats.h"
#include "../util/padded.h"
#include "scan_bag.h"

namespace smr::reclaim {

struct hp_config {
    /// Extra slack added to the 2nK scan threshold, in records. Larger
    /// values trade memory bound for fewer scans (the paper tunes HP "for
    /// high performance (instead of space efficiency)").
    int scan_slack_records = 512;
};

namespace detail {

class hp_global {
  public:
    using config = hp_config;
    /// Hazard slots per chunk. The first chunk is the base budget: lists
    /// and trees need a handful (prev, cur, descriptor, helping targets);
    /// the skip list's locked window holds preds[] and succs[] across every
    /// level. Bulk owners (guard_span: range scans holding a whole DFS
    /// stack) can exceed any fixed budget, so each thread's slot row is a
    /// *chain* of chunks grown on demand: the owner appends a fresh chunk
    /// when every slot is taken, scanners follow the chain. Chunks are
    /// never removed (slots empty out instead), so a scanner that misses a
    /// just-published chunk can only miss slots that were empty at its
    /// snapshot -- the same race as an empty slot filling after it was
    /// read, which HP scans already tolerate.
    static constexpr int K = 64;

    hp_global(int num_threads, const config& cfg, debug_stats* stats)
        : num_threads_(num_threads), cfg_(cfg), stats_(stats) {
        total_slots_.store(static_cast<long long>(num_threads) * K,
                           std::memory_order_relaxed);
    }

    ~hp_global() {
        for (int t = 0; t < MAX_THREADS; ++t) {
            slot_chunk* c =
                rows_[t]->head.next.load(std::memory_order_relaxed);
            while (c != nullptr) {
                slot_chunk* nx = c->next.load(std::memory_order_relaxed);
                delete c;
                c = nx;
            }
        }
    }

    void init_thread(int) noexcept {}
    void deinit_thread(int tid) noexcept { clear_all(tid); }

    template <class RotateFn, class PressureFn>
    bool leave_qstate(int, RotateFn&&, PressureFn&&) noexcept {
        return false;  // HPs have no epochs; nothing to do per operation
    }
    /// End of operation: every hazard pointer is released (paper Section 6:
    /// "enterQstate clears all announced HPs").
    void enter_qstate(int tid) noexcept { clear_all(tid); }
    bool is_quiescent(int) const noexcept { return false; }

    /// Dedicated mid-operation bulk release (traversal restarts, guard
    /// layer): for HPs identical to enter_qstate, but kept separate so the
    /// manager never has to announce quiescence just to drop hazards.
    void clear_hazards(int tid) noexcept { clear_all(tid); }

    /// Announce + fence + validate. On validation failure the slot is
    /// released and the caller must treat the operation as contended.
    /// When every slot in the thread's chain is taken, the owner appends a
    /// fresh chunk (grow-on-demand: only bulk spans ever reach this).
    template <class ValidateFn>
    bool protect(int tid, const void* p, ValidateFn&& validate) {
        slot_row& r = *rows_[tid];
        int i = r.hint;
        while (i < r.top &&
               slot_at(r, i).load(std::memory_order_relaxed) != nullptr)
            ++i;
        if (i == r.cap) append_chunk(r);
        std::atomic<const void*>& slot = slot_at(r, i);
        // seq_cst store doubles as the announcement fence (paper: "a memory
        // barrier must be issued immediately after a HP is announced").
        slot.store(p, std::memory_order_seq_cst);
        if (!validate()) {
            slot.store(nullptr, std::memory_order_release);
            if (stats_) stats_->add(tid, stat::hp_validation_failures);
            return false;
        }
        r.hint = i + 1;
        if (i >= r.top) r.top = i + 1;
        return true;
    }

    /// Releases the newest slot holding p. The search runs down from
    /// `top`, so a newest-first release (guard_span::reset) finds its slot
    /// at once and lowers `top` by one.
    void unprotect(int tid, const void* p) noexcept {
        slot_row& r = *rows_[tid];
        for (int i = r.top; i-- > 0;) {
            std::atomic<const void*>& s = slot_at(r, i);
            if (s.load(std::memory_order_relaxed) == p) {
                s.store(nullptr, std::memory_order_release);
                if (i < r.hint) r.hint = i;
                if (i + 1 == r.top) r.top = i;
                return;
            }
        }
    }

    bool is_protected(int tid, const void* p) const noexcept {
        const slot_row& r = *rows_[tid];
        for (int i = 0; i < r.top; ++i) {
            if (slot_at(r, i).load(std::memory_order_relaxed) == p) return true;
        }
        return false;
    }

    // HP provides no crash-recovery interface (paper Section 6: RProtect /
    // RUnprotectAll do nothing, isRProtected returns false).
    bool rprotect(int, const void*) noexcept { return true; }
    void runprotect_all(int) noexcept {}
    bool is_rprotected(int, const void*) const noexcept { return false; }

    /// Scanner side: hash every announced slot across all threads' chains
    /// (seq_cst chain loads match the seq_cst publish -- see append_chunk()).
    void collect_hazards(mem::ptr_hashset& out) const {
        for (int t = 0; t < num_threads_; ++t) {
            for (const slot_chunk* c = &rows_[t]->head; c != nullptr;
                 c = c->next.load(std::memory_order_seq_cst)) {
                for (int i = 0; i < K; ++i) {
                    out.insert(c->v[static_cast<std::size_t>(i)].load(
                        std::memory_order_seq_cst));
                }
            }
        }
    }

    /// The scan bag's snapshot: the announced pointers, hashed.
    class snapshot_t {
      public:
        /// Slot chains may have grown since the last scan (guard_span);
        /// re-size the set to the current capacity before collecting.
        void collect(const hp_global& g) {
            set_.reserve(g.max_hazards());
            set_.clear();
            g.collect_hazards(set_);
        }
        bool keeps(const void* p) const noexcept { return set_.contains(p); }

      private:
        mem::ptr_hashset set_{0};
    };
    static constexpr stat scan_counter = stat::hp_scans;

    /// Current slot capacity across all threads (grows as chunks are
    /// appended; never shrinks). Scanners size their hash set from this.
    std::size_t max_hazards() const noexcept {
        return static_cast<std::size_t>(
            total_slots_.load(std::memory_order_relaxed));
    }
    /// Scan when the bag reaches twice the *current* slot capacity plus
    /// slack, preserving the at-least-half-the-bag amortization even after
    /// spans grew the slot chains.
    long long scan_threshold_records() const noexcept {
        return 2 * total_slots_.load(std::memory_order_relaxed) +
               cfg_.scan_slack_records;
    }
    int num_threads() const noexcept { return num_threads_; }

  private:
    /// One chunk of a thread's hazard-slot chain. Only the owning thread
    /// appends; `next` is published once with a seq_cst store and scanners
    /// load it seq_cst (see append_chunk and collect_hazards).
    struct slot_chunk {
        // const void*: announcement slots only ever compare and hash; the
        // const_cast that used to launder retire-side pointers is gone.
        std::array<std::atomic<const void*>, K> v{};
        std::atomic<slot_chunk*> next{nullptr};
    };

    /// A thread's slot row: its first chunk, plus the owner's private view
    /// of the whole chain, which makes acquire and release O(1) in the
    /// common shapes instead of a scan from slot 0. protect takes the
    /// first free slot at or above `hint`; unprotect searches down from
    /// `top` (guard_span releases newest first, and a hand-over-hand
    /// traversal's oldest guard sits a few slots below `top`); the bulk
    /// clears stop at `top`. Only the owner reads or writes the view, so
    /// it is plain ints; scanners read every slot of every chunk instead.
    struct slot_row {
        int top = 0;   // every slot at index >= top is null
        int hint = 0;  // no free slot below hint (hint <= top <= cap)
        int cap = K;   // slots in the chain
        slot_chunk head;
    };

    /// Slot i of a row's chain (walks i / K links; owner-only, so the
    /// links it follows are its own writes).
    template <class Row>
    static auto slot_at(Row& r, int i) noexcept -> decltype(r.head.v[0]) {
        auto* c = &r.head;
        for (; i >= K; i -= K) c = c->next.load(std::memory_order_relaxed);
        return c->v[static_cast<std::size_t>(i)];
    }

    void clear_all(int tid) noexcept {
        slot_row& r = *rows_[tid];
        for (int i = 0; i < r.top; ++i) {
            std::atomic<const void*>& s = slot_at(r, i);
            if (s.load(std::memory_order_relaxed) != nullptr)
                s.store(nullptr, std::memory_order_release);
        }
        r.top = 0;
        r.hint = 0;
    }

    /// Owner-only append, taken only when every slot of the row is held.
    /// seq_cst publish so the standard HP scan argument covers chained
    /// slots: the publish precedes the announcement in the seq_cst total
    /// order, so a scan ordered after a successful validation's unlink
    /// observes the chunk (and hence the slot).
    [[gnu::cold, gnu::noinline]] void append_chunk(slot_row& r) {
        slot_chunk* last = &r.head;
        while (slot_chunk* nx = last->next.load(std::memory_order_relaxed))
            last = nx;
        last->next.store(new slot_chunk, std::memory_order_seq_cst);
        r.cap += K;
        total_slots_.fetch_add(K, std::memory_order_relaxed);
    }

    const int num_threads_;
    const config cfg_;
    debug_stats* stats_;
    std::atomic<long long> total_slots_{0};
    std::array<padded<slot_row>, MAX_THREADS> rows_{};
};

}  // namespace detail

struct reclaim_hp {
    static constexpr const char* name = "hp";
    static constexpr bool supports_crash_recovery = false;
    static constexpr bool is_fault_tolerant = true;
    static constexpr bool quiescence_based = false;
    static constexpr bool per_access_protection = true;

    using config = hp_config;
    using global_state = detail::hp_global;

    template <class T, class Pool, int B = mem::DEFAULT_BLOCK_SIZE>
    using per_type = scan_bag<T, Pool, B, global_state>;
};

}  // namespace smr::reclaim
