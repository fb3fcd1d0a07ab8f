// reclaimer_ibr.h -- 2GE interval-based reclamation (Wen, Izraelevitz,
// Wang & Scott, PPoPP 2018), at quiescence granularity.
//
// Scheme summary:
//   * every record carries [birth_era, retire_era] in an era_record header
//     (stamped by the record manager);
//   * each thread publishes ONE reservation interval [lower, upper]:
//     leave_qstate sets both bounds to the current era (one store-ordered
//     pair per operation, like DEBRA's announcement), enter_qstate retracts
//     the reservation;
//   * protect() is the interval *refresh*: its common path is a single
//     shared-era load -- if the published upper bound already reaches the
//     current era, every record allocated so far is covered and the call
//     returns immediately with no store and no fence. Only when the era has
//     advanced since the last refresh (once per era_freq retires globally)
//     does the thread extend upper and re-run the data structure's
//     validation. This is the scheme's "no per-access fences" property: the
//     per-access cost is DEBRA-like, yet a stalled thread pins only the
//     records whose lifetime intersects its (frozen) interval -- records
//     born after its upper bound reclaim normally, so limbo stays bounded
//     where DEBRA's grows without bound;
//   * retired records collect in per-thread scan bags (../scan_bag.h) and
//     are freed by an interval-intersection scan at the scan threshold.
//
// Traits: quiescence_based (the interval is anchored at operation
// boundaries) AND per_access_protection (the refresh rides the protect()
// hook). Traversal restarts (clear_hazards) deliberately do NOT retract
// the interval: the reservation is the operation's protection and stays
// published until enter_qstate.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "../../mem/block_pool.h"
#include "../../util/debug_stats.h"
#include "../../util/padded.h"
#include "../scan_bag.h"
#include "era_core.h"

namespace smr::reclaim {

struct ibr_config {
    /// Advance the global era every this many retires per thread. Smaller
    /// values tighten the limbo bound; larger values make more protects hit
    /// the load-only fast path.
    int era_freq = 64;
    /// Extra slack added to the per-thread scan threshold, in records.
    int scan_slack_records = 512;
};

namespace detail {

class ibr_global {
  public:
    using config = ibr_config;

    ibr_global(int num_threads, const config& cfg, debug_stats* stats)
        : num_threads_(num_threads), cfg_(cfg), stats_(stats),
          clock_(cfg.era_freq, stats) {
        for (int t = 0; t < MAX_THREADS; ++t) {
            res_[t]->lower.store(ERA_NONE, std::memory_order_relaxed);
            res_[t]->upper.store(ERA_NONE, std::memory_order_relaxed);
        }
    }

    void deinit_thread(int tid) noexcept { enter_qstate(tid); }

    /// Start of operation: reserve [e, e]. Upper is published before lower
    /// because lower doubles as the active flag -- a scanner that reads
    /// lower == e is thereby guaranteed (seq_cst total order) to read an
    /// upper >= e, never a torn smaller interval. Reclamation is
    /// retire-driven, so the manager's rotation closure goes unused.
    template <class RotateFn>
    bool leave_qstate(int tid, RotateFn&&) noexcept {
        reservation& r = *res_[tid];
        const std::uint64_t e = clock_.current();
        r.upper.store(e, std::memory_order_seq_cst);
        r.lower.store(e, std::memory_order_seq_cst);
        return false;
    }

    /// End of operation: retract the reservation.
    void enter_qstate(int tid) noexcept {
        res_[tid]->lower.store(ERA_NONE, std::memory_order_release);
    }

    /// Mid-operation bulk release: a no-op for IBR. The interval *is* the
    /// protection and is anchored at operation boundaries; the reservation
    /// stays published until enter_qstate. (The seed routed this through
    /// enter_qstate, which retracted the reservation -- flipping the
    /// quiescence announcement mid-operation and momentarily un-reserving
    /// records the restarting traversal could still reach.)
    void clear_hazards(int) noexcept {}

    bool is_quiescent(int tid) const noexcept {
        return res_[tid]->lower.load(std::memory_order_relaxed) == ERA_NONE;
    }

    /// Interval refresh (see header comment). The common path -- era
    /// unchanged since the last refresh -- is one acquire load.
    template <class ValidateFn>
    bool protect(int tid, const void*, ValidateFn&& validate) {
        reservation& r = *res_[tid];
        std::uint64_t era = clock_.current();
        const bool active =
            r.lower.load(std::memory_order_relaxed) != ERA_NONE;
        if (active && r.upper.load(std::memory_order_relaxed) >= era)
            return true;
        // Era advanced (or the interval was retracted by a traversal
        // restart): extend/re-publish until the era is stable across the
        // publish, then re-validate the record as HPs would.
        for (;;) {
            r.upper.store(era, std::memory_order_seq_cst);
            if (!active) r.lower.store(era, std::memory_order_seq_cst);
            const std::uint64_t now = clock_.current();
            if (now == era) break;
            era = now;
        }
        if (!validate()) {
            if (stats_) stats_->add(tid, stat::hp_validation_failures);
            return false;
        }
        return true;
    }

    /// The interval, not the pointer, is the protection: nothing to release
    /// per record.
    void unprotect(int, const void*) noexcept {}
    /// Every record is covered while the interval is published (epoch-style
    /// answer, as for DEBRA).
    bool is_protected(int tid, const void*) const noexcept {
        return !is_quiescent(tid);
    }

    // ---- era stamping (called by the record manager) ---------------------

    template <class Rec>
    void stamp_birth(Rec* rec) noexcept {
        rec->birth_era = clock_.current();
        rec->retire_era = ERA_NONE;
    }
    template <class Rec>
    void stamp_retire(int tid, Rec* rec) noexcept {
        rec->retire_era = clock_.current();
        clock_.on_retire(tid);
    }

    // ---- scanner side -----------------------------------------------------

    /// Snapshot of every active [lower, upper] pair; keeps() is an O(n)
    /// interval-intersection test (n = threads, small and cache-resident).
    class snapshot_t {
      public:
        void collect(const ibr_global& g) {
            intervals_.clear();
            for (int t = 0; t < g.num_threads_; ++t) {
                const reservation& r = *g.res_[t];
                // lower first: seeing an active lower guarantees the
                // subsequently-read upper is from the same or a later
                // reservation (see leave_qstate).
                const std::uint64_t lo =
                    r.lower.load(std::memory_order_seq_cst);
                if (lo == ERA_NONE) continue;
                std::uint64_t hi = r.upper.load(std::memory_order_seq_cst);
                if (hi < lo) hi = lo;  // defensive: never shrink below lo
                intervals_.push_back({lo, hi});
            }
        }
        template <class Rec>
        bool keeps(const Rec* r) const noexcept {
            for (const auto& iv : intervals_) {
                if (iv.lo <= r->retire_era && r->birth_era <= iv.hi)
                    return true;
            }
            return false;
        }

      private:
        struct interval {
            std::uint64_t lo, hi;
        };
        std::vector<interval> intervals_;
    };

    static constexpr stat scan_counter = stat::era_scans;
    long long scan_threshold_records() const noexcept {
        return 2LL * num_threads_ * cfg_.era_freq + cfg_.scan_slack_records;
    }
    const era_clock& clock() const noexcept { return clock_; }

  private:
    struct reservation {
        std::atomic<std::uint64_t> lower;
        std::atomic<std::uint64_t> upper;
    };

    const int num_threads_;
    const config cfg_;
    debug_stats* stats_;
    era_clock clock_;
    std::array<padded<reservation>, MAX_THREADS> res_;
};

}  // namespace detail

struct reclaim_ibr {
    static constexpr const char* name = "ibr-2ge";
    static constexpr bool supports_crash_recovery = false;
    static constexpr bool is_fault_tolerant = true;  // bounded limbo
    static constexpr bool quiescence_based = true;
    static constexpr bool per_access_protection = true;

    using config = ibr_config;
    using global_state = detail::ibr_global;

    /// Managed types are stored with an era header (see record_manager.h).
    template <class T>
    using stored = era_record<T>;

    template <class T, class Pool, int B = mem::DEFAULT_BLOCK_SIZE>
    using per_type = scan_bag<T, Pool, B, global_state>;
};

}  // namespace smr::reclaim
