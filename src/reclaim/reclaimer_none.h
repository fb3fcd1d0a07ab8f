// reclaimer_none.h -- the "None" baseline.
//
// `reclaim_none` performs no reclamation whatsoever: retire() drops the
// record on the floor. This is the paper's "None" comparator -- the data
// structure pays zero reclamation overhead and leaks every retired record
// (experiments must be short or memory-bounded).
#pragma once

#include "../mem/block_pool.h"
#include "../util/debug_stats.h"

namespace smr::reclaim {

struct reclaim_none {
    static constexpr const char* name = "none";
    static constexpr bool supports_crash_recovery = false;
    static constexpr bool is_fault_tolerant = true;  // vacuously: frees nothing
    static constexpr bool quiescence_based = false;
    static constexpr bool per_access_protection = false;

    struct config {};

    /// No shared state and no hooks: the traits above rule out every hook
    /// the record manager could ask of a global, so it answers them itself.
    struct global_state {
        global_state(int, const config&, debug_stats*) noexcept {}
    };

    template <class T, class Pool, int B = mem::DEFAULT_BLOCK_SIZE>
    class per_type {
      public:
        per_type(int, global_state&, Pool&, mem::block_pool_array<T, B>&,
                 debug_stats* stats)
            : stats_(stats) {}

        void retire(int tid, T*) {
            if (stats_) stats_->add(tid, stat::records_retired);
            // Leaked by design; see header comment.
        }
        long long limbo_size(int) const noexcept { return 0; }

      private:
        debug_stats* stats_;
    };
};

}  // namespace smr::reclaim
