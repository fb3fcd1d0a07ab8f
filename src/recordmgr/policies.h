// policies.h -- Allocator and Pool policy tags for the Record Manager.
//
// A Record Manager is assembled from three interchangeable components
// (paper Section 6): an Allocator, a Pool, and a Reclaimer. Components are
// selected with the tag types below as template arguments, so swapping e.g.
// bump allocation for malloc -- or DEBRA for hazard pointers -- is a
// one-line change at the data structure's instantiation site, with the
// concrete calls inlined by the compiler (no virtual dispatch).
#pragma once

#include "../alloc/allocator_bump.h"
#include "../alloc/allocator_new.h"
#include "../alloc/arena/arena_alloc.h"
#include "../pool/pool_discard.h"
#include "../pool/pool_perthread_shared.h"

namespace smr {

// ---- Allocator tags ------------------------------------------------------

/// malloc/free-backed allocation (paper Experiment 3).
struct alloc_malloc {
    static constexpr const char* name = "malloc";
    template <class T>
    using bind = alloc::allocator_new<T>;
};

/// Per-thread bump allocation out of preallocated chunks (Experiments 1, 2).
struct alloc_bump {
    static constexpr const char* name = "bump";
    template <class T>
    using bind = alloc::allocator_bump<T>;
};

/// Size-class slab arenas sharded per socket, fronted by per-thread
/// magazines (beyond the paper: the jemalloc/tcmalloc-shaped point on the
/// allocator axis, with NUMA home-return designed in).
struct alloc_arena {
    static constexpr const char* name = "arena";
    template <class T>
    using bind = alloc::allocator_arena<T>;
};

// ---- Pool tags -----------------------------------------------------------

/// Experiment-1 pool: reclamation bookkeeping runs, records are abandoned.
struct pool_discarding {
    static constexpr const char* name = "discard";
    template <class T, class Alloc, int B>
    using bind = pool::pool_discard<T, Alloc, B>;
};

/// The paper's object pool: per-thread bags + shared bag of full blocks.
struct pool_shared {
    static constexpr const char* name = "perthread+shared";
    template <class T, class Alloc, int B>
    using bind = pool::pool_perthread_shared<T, Alloc, B>;
};

}  // namespace smr
