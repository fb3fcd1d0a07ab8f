// allocator_bump.h -- per-thread bump allocation (paper Experiments 1 & 2).
//
// Each thread carves records sequentially out of large chunks it reserves
// from the heap. Fresh allocation is a pointer bump; deallocation pushes the
// record onto a per-thread free list that future allocations pop first.
//
// The paper uses this allocator for two reasons we reproduce:
//  * it removes malloc from the measured path, so differences between
//    reclamation schemes are not compressed by allocator overhead;
//  * "how far each bump allocator's pointer had moved" is exactly the
//    total memory allocated for records (Figure 9 right), a metric that can
//    be read after the trial with zero perturbation during it.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "../util/debug_stats.h"
#include "../util/padded.h"

namespace smr::alloc {

template <class T>
class allocator_bump {
  public:
    using value_type = T;

    /// Chunk size: large enough that chunk boundaries are rare, small enough
    /// that tests with many record types stay frugal.
    static constexpr std::size_t CHUNK_BYTES = 1u << 20;

    allocator_bump(int num_threads, debug_stats* stats)
        : num_threads_(num_threads), stats_(stats),
          per_thread_(static_cast<std::size_t>(num_threads)) {}

    allocator_bump(const allocator_bump&) = delete;
    allocator_bump& operator=(const allocator_bump&) = delete;

    T* allocate(int tid) {
        state& st = *per_thread_[static_cast<std::size_t>(tid)];
        if (st.free_list != nullptr) {
            free_node* n = st.free_list;
            st.free_list = n->next;
            if (stats_) stats_->add(tid, stat::records_reused);
            return reinterpret_cast<T*>(n);
        }
        if (st.bump == nullptr || st.bump + SLOT > st.chunk_end) grow(st);
        T* p = reinterpret_cast<T*>(st.bump);
        st.bump += SLOT;
        st.bumped_bytes += SLOT;
        if (stats_) stats_->add(tid, stat::records_allocated);
        return p;
    }

    void deallocate(int tid, T* p) noexcept {
        state& st = *per_thread_[static_cast<std::size_t>(tid)];
        free_node* n = reinterpret_cast<free_node*>(p);
        n->next = st.free_list;
        st.free_list = n;
        if (stats_) stats_->add(tid, stat::records_freed);
    }

    /// Figure 9 metric: bytes of fresh record storage this thread has bumped
    /// out of its chunks (free-list reuse does not move the pointer).
    long long bumped_bytes(int tid) const noexcept {
        return per_thread_[static_cast<std::size_t>(tid)]->bumped_bytes;
    }

    long long total_bumped_bytes() const noexcept {
        long long sum = 0;
        for (int t = 0; t < num_threads_; ++t) sum += bumped_bytes(t);
        return sum;
    }

    int num_threads() const noexcept { return num_threads_; }

  private:
    struct free_node {
        free_node* next;
    };

    /// Every record slot is big enough to double as a free-list node and
    /// respects T's alignment.
    static constexpr std::size_t SLOT =
        ((sizeof(T) < sizeof(free_node) ? sizeof(free_node) : sizeof(T)) +
         alignof(T) - 1) /
        alignof(T) * alignof(T);

    struct state {
        char* bump = nullptr;
        char* chunk_end = nullptr;
        free_node* free_list = nullptr;
        long long bumped_bytes = 0;
        std::vector<std::unique_ptr<char[]>> chunks;
    };

    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "bump allocator serves default-new-aligned records only");

    void grow(state& st) {
        const std::size_t bytes = CHUNK_BYTES < 4 * SLOT ? 4 * SLOT : CHUNK_BYTES;
        auto chunk = std::make_unique<char[]>(bytes);
        st.bump = chunk.get();
        st.chunk_end = chunk.get() + bytes;
        st.chunks.push_back(std::move(chunk));
    }

    const int num_threads_;
    debug_stats* stats_;
    std::vector<padded<state>> per_thread_;
};

}  // namespace smr::alloc
