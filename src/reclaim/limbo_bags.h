// limbo_bags.h -- per-thread three-epoch limbo bags (paper Section 4).
//
// Each thread keeps three private blockbags. At any moment one of them is
// the current bag; retire() appends to it in O(1). When the thread's epoch
// announcement changes, the bags rotate: the oldest bag -- whose records
// have now survived two epoch changes, hence a full grace period -- becomes
// the new current bag, and its full blocks move wholesale to the pool.
//
// Used verbatim by DEBRA and classic EBR. DEBRA+ subclasses the rotation
// with the hazard-pointer partition scan (see reclaimer_debra_plus.h).
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "../mem/block_pool.h"
#include "../mem/blockbag.h"
#include "../obs/event_ring.h"
#include "../util/debug_stats.h"
#include "../util/padded.h"

namespace smr::reclaim {

template <class T, class Pool, int B = mem::DEFAULT_BLOCK_SIZE>
class limbo_bags {
  public:
    using bag_t = mem::blockbag<T, B>;

    limbo_bags(int num_threads, Pool& pool,
               mem::block_pool_array<T, B>& bpools, debug_stats* stats)
        : num_threads_(num_threads), pool_(pool), stats_(stats) {
        states_.reserve(static_cast<std::size_t>(num_threads));
        for (int t = 0; t < num_threads; ++t)
            states_.push_back(std::make_unique<tstate>(bpools[t]));
    }

    limbo_bags(const limbo_bags&) = delete;
    limbo_bags& operator=(const limbo_bags&) = delete;

    /// Teardown is single-threaded and after all threads quiesced, so every
    /// limbo record is safe: hand them to the pool.
    ~limbo_bags() {
        for (int t = 0; t < num_threads_; ++t) {
            for (auto& bag : states_[t]->bags) {
                while (T* p = bag->remove()) pool_.release(t, p);
            }
        }
    }

    /// O(1): record retired by thread `tid` this epoch.
    void retire(int tid, T* p) {
        if (stats_) stats_->add(tid, stat::records_retired);
        states_[tid]->current().add(p);
    }

    /// Rotate on announcement change; move all full blocks of the (old)
    /// oldest bag to the pool. O(1) plus work proportional to blocks freed.
    /// The rotation and the pool hand-off of the freed bag are the epoch
    /// schemes' stop-the-thread moment, timed under the rotation column.
    void rotate_and_reclaim(int tid) {
        tstate& st = *states_[tid];
        st.index = (st.index + 1) % 3;
        obs::timed rotating(
            stats_, tid, obs::trace_event::limbo_rotation,
            static_cast<std::uint64_t>(st.current().size_in_blocks()));
        pool_.accept_chain(tid, st.current().take_full_blocks());
    }

    /// Blocks in the current bag -- DEBRA+'s neutralization pressure gauge.
    int current_bag_blocks(int tid) const {
        return states_[tid]->current().size_in_blocks();
    }

    /// Records waiting across all three bags (tests / monitoring).
    long long limbo_size(int tid) const {
        long long sum = 0;
        for (auto& bag : states_[tid]->bags) sum += bag->size();
        return sum;
    }

    long long total_limbo_size() const {
        long long sum = 0;
        for (int t = 0; t < num_threads_; ++t) sum += limbo_size(t);
        return sum;
    }

    bag_t& current_bag(int tid) { return states_[tid]->current(); }

  protected:
    struct tstate {
        explicit tstate(mem::block_pool<T, B>& bp) {
            for (auto& b : bags) b = std::make_unique<bag_t>(bp);
        }
        bag_t& current() { return *bags[index]; }
        const bag_t& current() const { return *bags[index]; }

        std::array<std::unique_ptr<bag_t>, 3> bags;
        int index = 0;
    };

    const int num_threads_;
    Pool& pool_;
    debug_stats* stats_;
    std::vector<std::unique_ptr<tstate>> states_;
};

}  // namespace smr::reclaim
