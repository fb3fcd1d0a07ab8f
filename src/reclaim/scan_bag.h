// scan_bag.h -- the retire-triggered scan-and-free bag of the per-access
// schemes: hazard pointers, Hazard Eras and 2GE-IBR (paper Section 3,
// "Hazard Pointers").
//
// Each thread keeps one private blockbag per record type. retire() appends
// in O(1); when the bag reaches global.scan_threshold_records() the thread
// snapshots every announcement, partitions the bag so records the snapshot
// keeps sit at the front, and moves every full block after them to the
// pool (blockbag::take_unkept, the same pass DEBRA+'s rotation scan
// runs). HP and HE set the threshold above twice their slot capacity, so
// a scan frees at least half the bag: expected amortized O(1) per record,
// and a limbo bound of the threshold plus one partial block per thread and
// type.
//
// The schemes differ only in what they announce, supplied by `Global`:
//
//   Global::snapshot_t   s.collect(global) takes the snapshot; s.keeps(p)
//                        says whether retired record p must wait (HP: set
//                        membership of the announced pointers; HE / IBR:
//                        a published era or interval meets p's lifetime);
//   Global::scan_counter the debug_stats counter a scan bumps (hp_scans or
//                        era_scans);
//   global.scan_threshold_records().
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "../mem/block_pool.h"
#include "../mem/blockbag.h"
#include "../obs/event_ring.h"
#include "../util/debug_stats.h"

namespace smr::reclaim {

template <class T, class Pool, int B, class Global>
class scan_bag {
  public:
    scan_bag(int num_threads, Global& global, Pool& pool,
             mem::block_pool_array<T, B>& bpools, debug_stats* stats)
        : num_threads_(num_threads), global_(global), pool_(pool),
          stats_(stats) {
        states_.reserve(static_cast<std::size_t>(num_threads));
        for (int t = 0; t < num_threads; ++t)
            states_.push_back(std::make_unique<tstate>(bpools[t]));
    }

    scan_bag(const scan_bag&) = delete;
    scan_bag& operator=(const scan_bag&) = delete;

    /// Teardown is single-threaded and after all threads quiesced; every
    /// limbo record is safe.
    ~scan_bag() {
        for (int t = 0; t < num_threads_; ++t) {
            while (T* p = states_[t]->bag.remove()) pool_.release(t, p);
        }
    }

    void retire(int tid, T* p) {
        if (stats_) stats_->add(tid, stat::records_retired);
        tstate& st = *states_[tid];
        st.bag.add(p);
        if (st.bag.size() >= global_.scan_threshold_records()) scan(tid);
    }

    /// These schemes reclaim from retire(); the manager-level rotation hook
    /// is a no-op.
    void rotate_and_reclaim(int) noexcept {}
    int current_bag_blocks(int tid) const {
        return states_[tid]->bag.size_in_blocks();
    }
    long long limbo_size(int tid) const { return states_[tid]->bag.size(); }

  private:
    struct tstate {
        explicit tstate(mem::block_pool<T, B>& bp) : bag(bp) {}
        mem::blockbag<T, B> bag;
        typename Global::snapshot_t snap;
    };

    /// The scan-and-free pass: the per-access schemes' stop-the-thread
    /// moment, timed under the scan_free stall column.
    void scan(int tid) {
        tstate& st = *states_[tid];
        obs::timed scanning(stats_, tid, obs::trace_event::scan_free,
                            static_cast<std::uint64_t>(st.bag.size()), 0,
                            Global::scan_counter);
        st.snap.collect(global_);
        pool_.accept_chain(
            tid, st.bag.take_unkept([&](T* p) { return st.snap.keeps(p); }));
    }

    const int num_threads_;
    Global& global_;
    Pool& pool_;
    debug_stats* stats_;
    std::vector<std::unique_ptr<tstate>> states_;
};

}  // namespace smr::reclaim
