// reclaimer_he.h -- Hazard Eras (Ramalhete & Correia, SPAA 2017): hazard
// pointers with eras in the slots instead of addresses.
//
// Scheme summary:
//   * every record carries [birth_era, retire_era] in an era_record header
//     (stamped by the record manager, invisible to the data structure);
//   * protect() publishes the *current era* in one of the thread's K
//     reservation slots, then re-reads the era until it is stable across
//     the publish -- a bounded loop with no CAS (the scheme's wait-free
//     protect). A published era e protects every record whose interval
//     contains e, so consecutive protects in the same era alias the same
//     slot and cost no store and no fence at all -- the main throughput win
//     over classic HPs, which pay a full fence per protect;
//   * retired records collect in per-thread scan bags (../scan_bag.h, as
//     for HPs); at 2nK + slack records the thread snapshots all nK slots
//     and frees every record whose interval no published era hits
//     (O(log nK) per record via a sorted snapshot). Same bounded-limbo
//     guarantee as HPs.
//
// Applicability matches HPs: protect() runs the data structure's validation
// predicate whenever it publishes a new era, and the structures already
// restart on validation failure. The store-free alias path skips
// validation; it is memory-safe because the published era already covers
// every record allocated up to now, and (as for the epoch schemes) records
// retired before this thread's protection span are assumed unreachable to
// it -- see DESIGN.md "Known theoretical limits".
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

#include "../../mem/block_pool.h"
#include "../../util/debug_stats.h"
#include "../../util/padded.h"
#include "../scan_bag.h"
#include "era_core.h"

namespace smr::reclaim {

struct he_config {
    /// Advance the global era every this many retires per thread. Smaller
    /// values tighten the limbo bound; larger values make more protects hit
    /// the store-free alias path.
    int era_freq = 64;
    /// Extra slack added to the 2nK scan threshold, in records (same knob
    /// as hp_config: trades memory bound for fewer scans).
    int scan_slack_records = 512;
};

namespace detail {

class he_global {
  public:
    using config = he_config;
    /// Era reservation slots per thread. Sized like hp_global::K: the skip
    /// list's locked window dominates with one protection per level endpoint.
    /// Distinct eras are usually few -- the alias path means a guard_span of
    /// any size consumes one slot per era it observed, so even a scan
    /// holding thousands of records protected publishes only as many eras
    /// as advanced during it (the clock advances once per era_freq retires
    /// per thread, so the advance rate scales with the churn). Exhausting
    /// all K slots inside one operation fails the protect like a
    /// validation rejection (the caller restarts; see protect()).
    static constexpr int K = 64;
    /// Initial reservation of the per-thread protection-entry array. The
    /// array itself grows on demand (std::vector) so bulk spans are not
    /// bounded by it; only the *distinct-era* budget K is fixed.
    static constexpr int ENTRY_RESERVE = 2 * K;

    he_global(int num_threads, const config& cfg, debug_stats* stats)
        : num_threads_(num_threads), cfg_(cfg), stats_(stats),
          clock_(cfg.era_freq, stats) {
        for (int t = 0; t < MAX_THREADS; ++t) {
            for (auto& s : slots_[t]->v)
                s.store(ERA_NONE, std::memory_order_relaxed);
            locals_[t]->entries.reserve(ENTRY_RESERVE);
        }
    }

    void init_thread(int) noexcept {}
    void deinit_thread(int tid) noexcept { clear_all(tid); }

    template <class RotateFn, class PressureFn>
    bool leave_qstate(int, RotateFn&&, PressureFn&&) noexcept {
        return false;  // no announcements; reclamation is retire-driven
    }
    /// End of operation: release every era reservation (as HPs clear all
    /// announced slots).
    void enter_qstate(int tid) noexcept { clear_all(tid); }
    bool is_quiescent(int) const noexcept { return false; }

    /// Dedicated mid-operation bulk release (traversal restarts, guard
    /// layer); HE tracks no quiescence word, but the manager still routes
    /// bulk clears here rather than through enter_qstate.
    void clear_hazards(int tid) noexcept { clear_all(tid); }

    /// Publish-or-alias, then validate on the publish path (see header
    /// comment). Returns false when validation rejects the record; the
    /// caller restarts as it would under HPs.
    template <class ValidateFn>
    bool protect(int tid, const void* p, ValidateFn&& validate) {
        local& L = *locals_[tid];
        // Already protected: count the extra claim so unprotect pairs up.
        if (entry* e = L.find(p)) {
            ++e->claims;
            return true;
        }
        std::uint64_t era = clock_.current();
        // Alias path: some slot already publishes this era, so every record
        // born up to now is covered. No store, no fence.
        int slot = L.find_slot(era);
        if (slot < 0) {
            // Publish path: claim a free slot and store the era until it is
            // stable across the publish (bounded by concurrent advances).
            slot = L.find_slot(ERA_NONE);
            if (slot < 0) {
                // Distinct-era budget exhausted: a single span observed
                // more than K era advances (possible for a very long scan
                // under churn, since guard_span admissions are unbounded).
                // Fail like a validation rejection -- the caller restarts,
                // its released span re-admits under the current era, and
                // the retry needs slots only for eras that advance *during*
                // the fresh attempt.
                if (stats_) stats_->add(tid, stat::hp_validation_failures);
                return false;
            }
            auto& word = slots_[tid]->v[static_cast<std::size_t>(slot)];
            for (;;) {
                word.store(era, std::memory_order_seq_cst);
                L.slot_eras[slot] = era;
                const std::uint64_t now = clock_.current();
                if (now == era) break;
                era = now;
            }
            if (!validate()) {
                word.store(ERA_NONE, std::memory_order_release);
                L.slot_eras[slot] = ERA_NONE;
                if (stats_) stats_->add(tid, stat::hp_validation_failures);
                return false;
            }
        }
        L.entries.push_back({p, slot, 1});
        ++L.slot_refs[slot];
        return true;
    }

    void unprotect(int tid, const void* p) noexcept {
        local& L = *locals_[tid];
        entry* e = L.find(p);
        if (e == nullptr) return;
        if (--e->claims > 0) return;
        const int slot = e->slot;
        *e = L.entries.back();
        L.entries.pop_back();
        if (--L.slot_refs[slot] == 0) {
            slots_[tid]->v[static_cast<std::size_t>(slot)].store(
                ERA_NONE, std::memory_order_release);
            L.slot_eras[slot] = ERA_NONE;
        }
    }

    bool is_protected(int tid, const void* p) const noexcept {
        return locals_[tid]->find(p) != nullptr;
    }

    // HE provides no crash-recovery interface (as HPs: RProtect et al. are
    // inert).
    bool rprotect(int, const void*) noexcept { return true; }
    void runprotect_all(int) noexcept {}
    bool is_rprotected(int, const void*) const noexcept { return false; }

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

    /// Sorted snapshot of every published era; keeps() is a binary search
    /// for any reservation inside the record's [birth, retire].
    class snapshot_t {
      public:
        void collect(const he_global& g) {
            eras_.clear();
            for (int t = 0; t < g.num_threads_; ++t) {
                for (const auto& s : g.slots_[t]->v) {
                    const std::uint64_t e = s.load(std::memory_order_seq_cst);
                    if (e != ERA_NONE) eras_.push_back(e);
                }
            }
            std::sort(eras_.begin(), eras_.end());
        }
        template <class Rec>
        bool keeps(const Rec* r) const noexcept {
            const auto it =
                std::lower_bound(eras_.begin(), eras_.end(), r->birth_era);
            return it != eras_.end() && *it <= r->retire_era;
        }

      private:
        std::vector<std::uint64_t> eras_;
    };

    static constexpr stat scan_counter = stat::era_scans;
    long long scan_threshold_records() const noexcept {
        return 2LL * num_threads_ * K + cfg_.scan_slack_records;
    }
    const era_clock& clock() const noexcept { return clock_; }
    int num_threads() const noexcept { return num_threads_; }

  private:
    struct entry {
        const void* p;
        int slot;
        int claims;  // protect() calls minus unprotect() calls for p
    };
    struct local {
        std::vector<entry> entries;  // grows on demand (guard_span bulk use)
        std::array<std::uint64_t, K> slot_eras{};  // owner's view of slots_
        std::array<int, K> slot_refs{};            // entries per slot

        entry* find(const void* p) noexcept {
            for (auto& e : entries)
                if (e.p == p) return &e;
            return nullptr;
        }
        const entry* find(const void* p) const noexcept {
            for (const auto& e : entries)
                if (e.p == p) return &e;
            return nullptr;
        }
        int find_slot(std::uint64_t era) const noexcept {
            for (int i = 0; i < K; ++i)
                if (slot_eras[i] == era) return i;
            return -1;
        }
    };
    struct slot_row {
        std::array<std::atomic<std::uint64_t>, K> v;
    };

    void clear_all(int tid) noexcept {
        local& L = *locals_[tid];
        for (int i = 0; i < K; ++i) {
            if (L.slot_eras[i] != ERA_NONE) {
                slots_[tid]->v[static_cast<std::size_t>(i)].store(
                    ERA_NONE, std::memory_order_release);
                L.slot_eras[i] = ERA_NONE;
            }
            L.slot_refs[i] = 0;
        }
        L.entries.clear();
    }

    const int num_threads_;
    const config cfg_;
    debug_stats* stats_;
    era_clock clock_;
    std::array<padded<slot_row>, MAX_THREADS> slots_{};
    std::array<padded<local>, MAX_THREADS> locals_;
};

}  // namespace detail

struct reclaim_he {
    static constexpr const char* name = "he";
    static constexpr bool supports_crash_recovery = false;
    static constexpr bool is_fault_tolerant = true;  // limbo bounded by 2nK
    static constexpr bool quiescence_based = false;
    static constexpr bool per_access_protection = true;

    using config = he_config;
    using global_state = detail::he_global;

    /// Managed types are stored with an era header (see record_manager.h).
    template <class T>
    using stored = era_record<T>;

    template <class T, class Pool, int B = mem::DEFAULT_BLOCK_SIZE>
    using per_type = scan_bag<T, Pool, B, global_state>;
};

}  // namespace smr::reclaim
