// reclaimer_debra.h -- DEBRA: distributed epoch based reclamation
// (paper Section 4, Figure 4).
//
// Scheme summary:
//   * private three-epoch limbo bags per thread (limbo_bags.h);
//   * one announcement word per thread, quiescent bit in the LSB;
//   * announcements of other threads are checked incrementally, one every
//     CHECK_THRESH operations (epoch_core.h);
//   * epoch increments by CAS, throttled by INCR_THRESH;
//   * retire/leaveQstate/enterQstate are all worst-case O(1).
//
// Partial fault tolerance: a thread that sleeps or dies while *quiescent*
// never blocks reclamation (its quiescent bit satisfies the scan). A thread
// stalled inside an operation does block it -- fixing that is DEBRA+'s job.
#pragma once

#include "../mem/block_pool.h"
#include "epoch_core.h"
#include "limbo_bags.h"

namespace smr::reclaim {

/// DEBRA runs on the epoch engine and the three-epoch limbo bags directly:
/// epoch_core is the whole global state (its default suspect rule waits for
/// the laggard) and limbo_bags the per-type bag. Without per-access
/// protection or crash recovery, the record manager answers protect and
/// rprotect itself (see record_manager.h).
struct reclaim_debra {
    static constexpr const char* name = "debra";
    static constexpr bool supports_crash_recovery = false;
    static constexpr bool is_fault_tolerant = false;
    static constexpr bool quiescence_based = true;
    static constexpr bool per_access_protection = false;

    using config = epoch_config;
    using global_state = epoch_core;

    template <class T, class Pool, int B = mem::DEFAULT_BLOCK_SIZE>
    using per_type = limbo_bags<T, Pool, B>;
};

/// Classic epoch based reclamation (Fraser), expressed as DEBRA minus its
/// optimizations: every leaveQstate scans announcements until blocked
/// (O(n) per operation) and the epoch advances as soon as the scan
/// completes. Serves as the paper's EBR baseline and as the ablation that
/// isolates what DEBRA's distribution buys.
struct reclaim_ebr : reclaim_debra {
    static constexpr const char* name = "ebr";

    /// EBR-flavoured defaults for epoch_config.
    static config default_config() {
        config c;
        c.check_thresh = 1;
        c.incr_thresh = 1;
        c.scan_all_per_op = true;
        return c;
    }
};

}  // namespace smr::reclaim
