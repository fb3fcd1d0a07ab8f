// debug_stats.h -- cheap per-thread event counters, aggregated on demand.
//
// The paper's evaluation reports more than throughput: Figure 9 needs total
// memory allocated, the Section 4 block-pool claim needs block allocation
// counts, and the Figure 9 discussion needs neutralization counts. Every
// component in this library bumps a per-thread padded counter (one relaxed
// add, no sharing) and the harness sums them after the trial.
//
// Stall attribution (schema v3): besides plain counters, debug_stats keeps
// one duration histogram per (thread, stall_site). The timed events --
// DEBRA+ neutralization recovery, HP/HE/IBR/DEBRA+ scan-and-free passes,
// limbo-bag rotation, arena magazine refill/flush -- bracket themselves
// with obs::timed (obs/event_ring.h), which files each duration under the
// event's column, so a p999 spike in the op-latency histograms can be
// attributed to a reclamation event instead of guessed at.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>

#include "latency_hist.h"
#include "padded.h"

namespace smr {

/// Compile-time upper bound on threads. Runtime thread counts up to this
/// value are chosen per-experiment; the arrays this sizes are all per-thread
/// slots, ~dozens of KiB total.
inline constexpr int MAX_THREADS = 128;

enum class stat : int {
    records_allocated,       // allocator handed out fresh storage
    records_freed,           // storage returned to the OS / arena
    records_retired,         // retire() calls
    records_pooled,          // records moved from limbo bags to a pool
    records_reused,          // pool satisfied an allocate()
    blocks_allocated,        // blockbag blocks obtained from heap
    blocks_recycled,         // blockbag blocks served from block_pool
    epochs_advanced,         // successful epoch CAS
    announcement_checks,     // reads of another thread's announcement
    rotations,               // limbo-bag rotations
    neutralize_signals_sent,
    neutralize_signals_received,  // handler ran while non-quiescent (longjmp)
    benign_signals_received,      // handler ran while quiescent (no-op)
    hp_scans,                // full hazard-pointer scans
    hp_validation_failures,  // protect() validation rejected (op restarts)
    era_scans,               // era-reservation limbo scans (HE / IBR)
    op_restarts,             // data structure operation restarted
    pool_shared_steals,      // pool blocks popped from the shared tier
    pool_remote_steals,      // ...of those, popped from a non-local shard
    pool_remote_returns,     // pool blocks pushed home across shards
    arena_remote_frees,      // arena records flushed home across shards
    arena_slabs,             // arena slabs carved from the heap
    COUNT
};

inline constexpr std::array<std::string_view,
                            static_cast<int>(stat::COUNT)>
    stat_names = {
        "records_allocated",      "records_freed",
        "records_retired",        "records_pooled",
        "records_reused",         "blocks_allocated",
        "blocks_recycled",        "epochs_advanced",
        "announcement_checks",    "rotations",
        "neutralize_signals_sent","neutralize_signals_received",
        "benign_signals_received","hp_scans",
        "hp_validation_failures", "era_scans",
        "op_restarts",            "pool_shared_steals",
        "pool_remote_steals",     "pool_remote_returns",
        "arena_remote_frees",     "arena_slabs",
};

/// The latency.stalls columns. Each timed event names its column in
/// obs::event_table:
///   neutralize -- DEBRA+ recovery after a neutralization longjmp
///                 (accessor::run_guarded's recovery arm);
///   scan_free  -- scan-and-free passes: HP hazard scans, HE/IBR era
///                 limbo scans, DEBRA+'s RProtected rotation scan;
///   rotation   -- plain limbo-bag rotation (DEBRA/EBR), including the
///                 pool hand-off of the freed bag;
///   arena      -- arena magazine refill/flush (lock acquisition + batch
///                 free-list splice, the allocator's only blocking path).
enum class stall_site : int { neutralize, scan_free, rotation, arena, COUNT };

inline constexpr std::array<std::string_view,
                            static_cast<int>(stall_site::COUNT)>
    stall_site_names = {"neutralize", "scan_free", "rotation", "arena"};

/// Every counter summed over threads at one instant: the harness's
/// post-trial and phase-boundary harvests (debug_stats::totals).
struct stat_totals {
    std::array<std::uint64_t, static_cast<int>(stat::COUNT)> v{};

    std::uint64_t operator[](stat s) const noexcept {
        return v[static_cast<std::size_t>(s)];
    }
    std::uint64_t& operator[](stat s) noexcept {
        return v[static_cast<std::size_t>(s)];
    }
};

/// Per-thread counter matrix. Writes are relaxed single-writer; totals are
/// only meaningful once the writing threads have quiesced (harness sums
/// after joining / barrier).
class debug_stats {
  public:
    // smr-lint: signal-safe (called from neutralize_handler: one relaxed
    // fetch_add on a preallocated cell, no allocation or locking)
    void add(int tid, stat s, std::uint64_t delta = 1) noexcept {
        cells_[tid]->counts[static_cast<int>(s)].fetch_add(
            delta, std::memory_order_relaxed);
    }

    std::uint64_t get(int tid, stat s) const noexcept {
        return cells_[tid]->counts[static_cast<int>(s)].load(
            std::memory_order_relaxed);
    }

    std::uint64_t total(stat s) const noexcept {
        std::uint64_t sum = 0;
        for (int t = 0; t < MAX_THREADS; ++t) sum += get(t, s);
        return sum;
    }

    stat_totals totals() const noexcept {
        stat_totals out;
        for (int s = 0; s < static_cast<int>(stat::COUNT); ++s)
            out.v[static_cast<std::size_t>(s)] = total(static_cast<stat>(s));
        return out;
    }

    /// Records one stall of `ns` nanoseconds at `site` (single writer per
    /// tid, like add()). The histogram doubles as the stall counter: its
    /// total count is the number of stall events.
    // smr-lint: signal-safe (recovery-path root via obs::timed: delegates
    // to lat_hist::record on a preallocated histogram)
    void stall(int tid, stall_site site, std::uint64_t ns) noexcept {
        stalls_->cells[static_cast<std::size_t>(tid)]
            [static_cast<std::size_t>(site)]
                .record(ns);
    }

    const lat_hist& stall_hist(int tid, stall_site site) const noexcept {
        return stalls_->cells[static_cast<std::size_t>(tid)]
            [static_cast<std::size_t>(site)];
    }

    /// All threads' histograms for one site, merged (post-trial harvest).
    lat_summary stall_summary(stall_site site) const noexcept {
        lat_summary s;
        for (int t = 0; t < MAX_THREADS; ++t) s.add(stall_hist(t, site));
        return s;
    }

    void clear() noexcept {
        for (int t = 0; t < MAX_THREADS; ++t) {
            for (auto& c : cells_[t]->counts)
                c.store(0, std::memory_order_relaxed);
            for (auto& h : stalls_->cells[static_cast<std::size_t>(t)])
                h.clear();
        }
    }

  private:
    struct cell {
        std::array<std::atomic<std::uint64_t>, static_cast<int>(stat::COUNT)>
            counts{};
    };
    /// ~1 MiB of histograms, heap-held so record_manager instances (which
    /// embed a debug_stats by value) stay cheap to place on a stack frame.
    /// No per-site padding: all four site histograms of a tid share one
    /// writer, and distinct tids are already slabs apart.
    struct stall_matrix {
        std::array<std::array<lat_hist, static_cast<int>(stall_site::COUNT)>,
                   MAX_THREADS>
            cells{};
    };
    std::array<padded<cell>, MAX_THREADS> cells_{};
    std::unique_ptr<stall_matrix> stalls_ =
        std::make_unique<stall_matrix>();
};

}  // namespace smr
