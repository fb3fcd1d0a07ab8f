// allocator_new.h -- heap-backed allocator (paper Experiment 3).
//
// allocate() requests storage from the global heap and deallocate() returns
// it. This is the simplest Allocator and the one whose overhead Experiment 3
// measures; Experiments 1 and 2 use allocator_bump instead.
//
// Allocators hand out *raw storage*: records follow the lifecycle of paper
// Figure 1, where allocation and initialization are separate steps (the data
// structure placement-news the record inside its quiescent preamble).
#pragma once

#include <cstddef>
#include <new>

#include "../util/debug_stats.h"

namespace smr::alloc {

template <class T>
class allocator_new {
  public:
    using value_type = T;

    allocator_new(int num_threads, debug_stats* stats)
        : num_threads_(num_threads), stats_(stats) {}

    allocator_new(const allocator_new&) = delete;
    allocator_new& operator=(const allocator_new&) = delete;

    /// Returns uninitialized, suitably-aligned storage for one T.
    T* allocate(int tid) {
        if (stats_) {
            stats_->add(tid, stat::records_allocated);
        }
        return static_cast<T*>(
            ::operator new(sizeof(T), std::align_val_t{alignof(T)}));
    }

    void deallocate(int tid, T* p) noexcept {
        if (stats_) stats_->add(tid, stat::records_freed);
        ::operator delete(p, std::align_val_t{alignof(T)});
    }

    /// Bytes of record storage handed out, total across threads. For the
    /// heap allocator this counts allocations minus frees.
    long long bytes_in_use(const debug_stats& stats) const noexcept {
        return static_cast<long long>(sizeof(T)) *
               (static_cast<long long>(stats.total(stat::records_allocated)) -
                static_cast<long long>(stats.total(stat::records_freed)));
    }

    int num_threads() const noexcept { return num_threads_; }

  private:
    const int num_threads_;
    debug_stats* stats_;
};

}  // namespace smr::alloc
