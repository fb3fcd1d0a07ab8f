// tsan_annotate.h -- make uninstrumented synchronization visible to TSan.
//
// GCC lowers 16-byte atomics (shared_blockbag's tagged head) to libatomic
// __atomic_*_16 libcalls, which ThreadSanitizer does not instrument: the
// release/acquire edge those operations carry is real on the hardware but
// invisible to the detector, so everything ordered only by such an edge
// is reported as racing (DESIGN.md Section 11.2).
//
// These helpers republish the edge through TSan's annotation interface:
// the releasing side calls tsan_release(addr) before its (real) publishing
// operation, the acquiring side calls tsan_acquire(addr) after its (real)
// consuming operation, with `addr` any address both sides agree identifies
// the handoff (the block pointer itself works well). Outside TSan builds
// both are empty inlines and vanish entirely -- they must never be the
// only synchronization, only a re-statement of synchronization the
// surrounding code already performs.
#pragma once

#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SMR_TSAN_HAS_FEATURE 1
#include <sanitizer/tsan_interface.h>
#endif
#endif

namespace smr::util {

#if defined(__SANITIZE_THREAD__) || defined(SMR_TSAN_HAS_FEATURE)
// const_cast: the sanitizer interface takes void*, but annotation never
// writes through the pointer -- it only keys TSan's sync-clock table.
inline void tsan_release(const void* addr) noexcept {
    __tsan_release(const_cast<void*>(addr));
}
inline void tsan_acquire(const void* addr) noexcept {
    __tsan_acquire(const_cast<void*>(addr));
}
#else
inline void tsan_release(const void*) noexcept {}
inline void tsan_acquire(const void*) noexcept {}
#endif

}  // namespace smr::util
