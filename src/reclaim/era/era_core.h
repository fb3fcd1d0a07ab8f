// era_core.h -- the era-clock engine shared by Hazard Eras and 2GE
// interval-based reclamation (IBR).
//
// Era schemes generalize the epoch engine in ../epoch_core.h: instead of one
// global epoch that every active thread must catch up to, a global *era*
// counter advances on retirement pressure, and every record carries the era
// interval [birth_era, retire_era] over which it was reachable. A retired
// record may be freed as soon as no thread holds a *reservation* that
// intersects its interval:
//
//   * Hazard Eras publishes per-access era reservations in hazard-style
//     slots (reclaimer_he.h);
//   * 2GE-IBR publishes one [lower, upper] interval per thread at quiescence
//     granularity (reclaimer_ibr.h).
//
// Both reuse the two pieces in this header:
//
//   * era_clock -- the monotonic global era, advanced every `era_freq`
//     retires (per thread, so a lone retiring thread cannot thrash it);
//   * era_record<T> -- the per-record header carrying the stamps. Managed
//     types stay untouched (and trivially destructible); the record manager
//     transparently allocates era_record<T> and hands out &rec->value (see
//     record_manager.h "era stamping").
//
// Retired records wait in ../scan_bag.h, HP's bag: a scan frees every
// record whose interval no reservation intersects.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "../../obs/event_ring.h"
#include "../../util/debug_stats.h"
#include "../../util/padded.h"

namespace smr::reclaim {

/// Reservation slot / interval value meaning "nothing reserved". Eras start
/// at 1 so the sentinel can never collide with a real stamp.
inline constexpr std::uint64_t ERA_NONE = 0;

/// The global monotonic era counter. Reads are cheap (one shared cache
/// line, almost always a hit); advances happen once per `era_freq` retires
/// per thread, so the line is written rarely.
class era_clock {
  public:
    era_clock(int era_freq, debug_stats* stats)
        : era_freq_(era_freq > 0 ? era_freq : 1), stats_(stats) {
        era_.store(1, std::memory_order_relaxed);
    }

    era_clock(const era_clock&) = delete;
    era_clock& operator=(const era_clock&) = delete;

    std::uint64_t current() const noexcept {
        return era_.load(std::memory_order_acquire);
    }

    /// Called once per retire. Advances the era every era_freq retires by
    /// this thread. fetch_add (not CAS): concurrent advances just move the
    /// clock further, which is always safe -- eras need monotonicity, not
    /// exactness.
    void on_retire(int tid) noexcept {
        local& L = *locals_[tid];
        if (++L.retires_since_advance >= era_freq_) {
            L.retires_since_advance = 0;
            const std::uint64_t e =
                era_.fetch_add(1, std::memory_order_seq_cst) + 1;
            obs::instant(stats_, tid, obs::trace_event::era_advance, e);
        }
    }

    int era_freq() const noexcept { return era_freq_; }

  private:
    struct local {
        int retires_since_advance = 0;
    };

    const int era_freq_;
    debug_stats* stats_;
    alignas(PREFETCH_LINE) std::atomic<std::uint64_t> era_;
    std::array<padded<local>, MAX_THREADS> locals_;
};

/// Per-record header for era stamping. The record manager stores managed
/// type T as era_record<T> whenever the scheme declares `stored<T>`; the
/// data structure only ever sees &rec->value, so its code is unchanged.
/// Standard layout + trivially destructible, so storage recycles exactly
/// like a bare T.
template <class T>
struct era_record {
    std::uint64_t birth_era;
    std::uint64_t retire_era;
    T value;

    T* value_ptr() noexcept { return &value; }

    /// Recovers the header from the pointer the data structure holds.
    static era_record* from_value(T* p) noexcept {
        return reinterpret_cast<era_record*>(
            reinterpret_cast<char*>(p) - offsetof(era_record, value));
    }
};

}  // namespace smr::reclaim
