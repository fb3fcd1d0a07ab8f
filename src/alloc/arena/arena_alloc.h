// arena_alloc.h -- size-class slab arenas, sharded per socket, fronted by
// per-thread magazines.
//
// The third point on the AllocTag axis (after bump and new/delete): a
// jemalloc-shaped allocator with the paper's NUMA concern designed in.
// Three tiers:
//
//   magazine   per-thread array of ready slots. allocate/deallocate touch
//              only this on the fast path: no lock, no atomic.
//   shard      per-*socket* state (free list + bump cursor + slab list)
//              behind a mutex. Magazines refill from / flush to shards in
//              batches of MAG_CAP/2, so the lock is taken once per ~32
//              records -- the same amortization trick as the object
//              pool's block granularity.
//   slab       64 KiB chunk, SLAB_BYTES-aligned, carved into slots of the
//              record type's size class (size_classes.h). The owning
//              shard is stamped once in the slab header -- "owner at slab
//              granularity, not per record": any record's home shard is a
//              mask and one header read away.
//
// Home-return protocol: a magazine flush routes every record to the shard
// its *slab* belongs to, not the shard of the freeing thread. A record
// allocated on socket 0 and freed on socket 1 therefore goes home, and
// the next socket-0 refill hands it out locally instead of bouncing the
// cache line across the interconnect. Cross-shard flushes bump the
// arena_remote_frees counter (zero on single-node hosts, where detection
// yields one shard and every path degenerates to the local case).
//
// Zero new dependencies: slabs come from aligned ::operator new; topology
// from src/topo/topology.h (sysfs with a portable fallback).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <vector>

#include "../../obs/event_ring.h"
#include "../../topo/topology.h"
#include "../../util/debug_stats.h"
#include "../../util/padded.h"
#include "size_classes.h"

namespace smr::alloc {

template <class T>
class allocator_arena {
  public:
    using value_type = T;
    static constexpr bool preallocates = true;

    /// Slab size doubles as slab alignment, so a record's slab header is
    /// one mask away.
    static constexpr std::size_t SLAB_BYTES = std::size_t{1} << 16;
    /// First slot offset: past the header, cache-line aligned.
    static constexpr std::size_t SLAB_HEADER_BYTES = 64;
    /// Magazine capacity; refills and flushes move half of it at a time.
    static constexpr int MAG_CAP = 64;

    /// Slot size: the record's size class, wide enough to double as a
    /// free-list node.
    static constexpr std::size_t SLOT = round_size(
        sizeof(T) < sizeof(void*) ? sizeof(void*) : sizeof(T));

    static_assert(sizeof(T) <= SIZE_CLASS_MAX,
                  "record too large for the slab arenas");
    static_assert(alignof(T) <= 16,
                  "arena slots are 16-byte aligned at most");

    allocator_arena(int num_threads, debug_stats* stats)
        : num_threads_(num_threads),
          stats_(stats),
          num_shards_(topo::shard_count()),
          mags_(static_cast<std::size_t>(num_threads)),
          shards_(static_cast<std::size_t>(num_shards_)) {}

    allocator_arena(const allocator_arena&) = delete;
    allocator_arena& operator=(const allocator_arena&) = delete;

    ~allocator_arena() {
        // Records never individually return to the OS: slabs are released
        // wholesale. By manager teardown order every record is dead (the
        // pool drains into the allocator before the allocator dies), so
        // magazines and shard free lists are just views into the slabs.
        for (auto& sh : shards_) {
            for (void* slab : sh->slabs) {
                ::operator delete(slab, std::align_val_t{SLAB_BYTES});
            }
        }
    }

    T* allocate(int tid) {
        magazine& m = *mags_[static_cast<std::size_t>(tid)];
        if (m.count == 0) refill(tid, m);
        // Exactly one counter per hand-out (the bump/malloc convention,
        // which keeps the allocator axis comparable): fresh-carved slots
        // count as allocated, everything else -- free-list pulls and
        // magazine-recycled frees -- as reused. The magazine tracks its
        // fresh segment by index: refill stacks fresh slots on top of
        // free-list pulls, pops consume the top, and deallocations land
        // above the segment, so one [lo, hi) window stays exact.
        const int i = --m.count;
        const bool fresh = i >= m.fresh_lo && i < m.fresh_hi;
        if (fresh) m.fresh_hi = i;
        if (stats_) {
            stats_->add(tid, fresh ? stat::records_allocated
                                   : stat::records_reused);
        }
        return m.items[i];
    }

    void deallocate(int tid, T* p) noexcept {
        if (stats_) stats_->add(tid, stat::records_freed);
        magazine& m = *mags_[static_cast<std::size_t>(tid)];
        if (m.count == MAG_CAP) flush(tid, m, MAG_CAP / 2);
        m.items[m.count++] = p;
    }

    // ---- introspection (tests, monitoring) -------------------------------

    int shards() const noexcept { return num_shards_; }

    /// The shard whose slab backs `p` (one mask + header read).
    static int home_shard_of(const T* p) noexcept {
        const auto* h = reinterpret_cast<const slab_header*>(
            reinterpret_cast<std::uintptr_t>(p) & ~(SLAB_BYTES - 1));
        return h->home_shard;
    }

    long long shard_free_records(int s) {
        shard& sh = *shards_[static_cast<std::size_t>(s)];
        std::lock_guard<std::mutex> lock(sh.mu);
        return sh.free_count;
    }

    int magazine_size(int tid) const noexcept {
        return mags_[static_cast<std::size_t>(tid)]->count;
    }

    /// Sends every magazine slot home (tests; also safe any time the
    /// owning thread is the caller).
    void flush_magazine(int tid) {
        magazine& m = *mags_[static_cast<std::size_t>(tid)];
        flush(tid, m, m.count);
    }

    int num_threads() const noexcept { return num_threads_; }

  private:
    struct free_node {
        free_node* next;
    };

    struct slab_header {
        int home_shard;
    };
    static_assert(sizeof(slab_header) <= SLAB_HEADER_BYTES);
    static_assert(SLAB_HEADER_BYTES % 16 == 0 && SLOT % 8 == 0,
                  "slot addresses must satisfy the record's alignment");

    struct magazine {
        T* items[MAG_CAP];
        int count = 0;
        /// Indices [fresh_lo, fresh_hi) currently hold never-handed-out
        /// slots from the last refill's carve (see allocate()).
        int fresh_lo = 0;
        int fresh_hi = 0;
    };

    struct shard {
        std::mutex mu;
        free_node* free_list = nullptr;
        long long free_count = 0;
        char* bump = nullptr;
        char* bump_end = nullptr;
        std::vector<void*> slabs;
    };

    /// Pulls MAG_CAP/2 records from the calling thread's local shard:
    /// free list first (reuse), then bump-carve, growing a slab when the
    /// cursor runs dry. One lock acquisition per batch; hand-out
    /// accounting happens in allocate() via the fresh segment.
    void refill(int tid, magazine& m) {
        const int s = topo::current_shard(tid);
        shard& sh = *shards_[static_cast<std::size_t>(s)];
        const int target = MAG_CAP / 2;
        // The shard lock + batch pull (possibly a slab carve) is the
        // allocator's blocking path. allocate() refills an empty
        // magazine, so the batch is always `target`.
        assert(m.count == 0);
        obs::timed refilling(stats_, tid, obs::trace_event::arena_refill,
                             static_cast<std::uint64_t>(target),
                             static_cast<std::uint64_t>(s));
        std::lock_guard<std::mutex> lock(sh.mu);
        while (m.count < target && sh.free_list != nullptr) {
            free_node* n = sh.free_list;
            sh.free_list = n->next;
            --sh.free_count;
            m.items[m.count++] = reinterpret_cast<T*>(n);
        }
        m.fresh_lo = m.count;
        while (m.count < target) {
            if (sh.bump == nullptr || sh.bump + SLOT > sh.bump_end) {
                grow(tid, s, sh);
            }
            m.items[m.count++] = reinterpret_cast<T*>(sh.bump);
            sh.bump += SLOT;
        }
        m.fresh_hi = m.count;
    }

    /// Sends the oldest `n` magazine slots to their *home* shards (slab
    /// stamp), one lock per shard touched. Cross-shard sends count as
    /// arena_remote_frees.
    void flush(int tid, magazine& m, int n) {
        if (n > m.count) n = m.count;
        if (n <= 0) return;
        // Per-home-shard lock acquisitions and splices.
        obs::timed flushing(stats_, tid, obs::trace_event::arena_flush,
                            static_cast<std::uint64_t>(n));
        const int local = topo::current_shard(tid);
        int remote = 0;
        // Group by home shard: chain the items per shard, then splice each
        // chain under one lock. Shard counts are single digits, so the
        // scan per shard beats an allocation or a sort.
        for (int s = 0; s < num_shards_; ++s) {
            free_node* chain = nullptr;
            long long chained = 0;
            for (int i = 0; i < n; ++i) {
                if (home_shard_of(m.items[i]) != s) continue;
                auto* fn = reinterpret_cast<free_node*>(m.items[i]);
                fn->next = chain;
                chain = fn;
                ++chained;
            }
            if (chain == nullptr) continue;
            if (s != local) remote += static_cast<int>(chained);
            shard& sh = *shards_[static_cast<std::size_t>(s)];
            std::lock_guard<std::mutex> lock(sh.mu);
            // Splice the whole chain in one walk of its own links.
            free_node* tail = chain;
            while (tail->next != nullptr) tail = tail->next;
            tail->next = sh.free_list;
            sh.free_list = chain;
            sh.free_count += chained;
        }
        // Keep the newest (cache-warm) items in the magazine; the fresh
        // segment's indices shift down with the survivors.
        for (int i = n; i < m.count; ++i) m.items[i - n] = m.items[i];
        m.count -= n;
        m.fresh_lo = m.fresh_lo > n ? m.fresh_lo - n : 0;
        m.fresh_hi = m.fresh_hi > n ? m.fresh_hi - n : 0;
        if (stats_ && remote > 0) {
            stats_->add(tid, stat::arena_remote_frees,
                        static_cast<std::uint64_t>(remote));
        }
    }

    /// New SLAB_BYTES-aligned slab, home stamped once in its header.
    /// Called with the shard lock held.
    void grow(int tid, int s, shard& sh) {
        void* raw = ::operator new(SLAB_BYTES, std::align_val_t{SLAB_BYTES});
        auto* h = static_cast<slab_header*>(raw);
        h->home_shard = s;
        sh.bump = static_cast<char*>(raw) + SLAB_HEADER_BYTES;
        sh.bump_end = static_cast<char*>(raw) + SLAB_BYTES;
        sh.slabs.push_back(raw);
        if (stats_) stats_->add(tid, stat::arena_slabs);
    }

    const int num_threads_;
    debug_stats* stats_;
    const int num_shards_;
    std::vector<padded<magazine>> mags_;
    std::vector<padded<shard>> shards_;
};

}  // namespace smr::alloc
