// event_ring.h -- per-thread lock-free event tracing for the telemetry
// subsystem (DESIGN.md Section 12).
//
// Every reclamation-lifecycle event -- a neutralization signal sent or
// handled, a limbo-bag rotation, a scan-and-free batch, an epoch or era
// advance, an arena magazine refill/flush, a thread registering or
// deregistering, a neutralization recovery -- is recorded as one fixed
// 32-byte record in the emitting thread's SPSC ring. Each site makes one
// call, obs::instant or the obs::timed bracket (bottom of this file),
// which also bumps the event's debug_stats counter and, when timed, files
// its duration under the event's stall column (event_table). The design
// constraints, in order:
//
//   1. Signal-safe producer. DEBRA+'s neutralize handler emits events from
//      async-signal context, so the record path allocates nothing, takes no
//      lock, and never touches a Meyers-static init guard (the global trace
//      is an `inline` object with trivially-initializable members). It is
//      part of the smr_lint SS1-SS3 signal-safety closure via the
//      `trace_emit` root.
//   2. Near-zero cost when idle. With tracing disabled, trace_emit is one
//      relaxed pointer load and a predicted branch. Enabled-mode overhead
//      is bounded by the `telemetry_overhead` paired A/B (<=2%).
//   3. Drop-oldest, with accounting. Rings are fixed-size; a full ring
//      overwrites its oldest record and counts the drop. Sustained-service
//      runs surface the drop counter in every snapshot, so a saturated
//      ring is visible instead of silently lossy.
//   4. TSan-clean overwrite path. Record words are relaxed atomics, so the
//      producer overwriting a slot the consumer is concurrently copying is
//      defined behavior; the consumer detects the overwrite via the slot's
//      claim word and the tail cursor and discards the possibly-torn
//      copies (they were already counted as producer drops).
//
// Record layout (4 x u64, plus one per-slot claim word):
//   w0  timestamp: raw lat_clock::now() ticks (convert deltas at drain)
//   w1  (event id << 48) | (tid << 32) | (reservation index, low 32 bits)
//   w2  arg0 (event-specific payload)
//   w3  arg1
//
// Cursor protocol. head_ is the next write index, tail_ the next read
// index; slot i lives at i & mask. The producer is the owning thread
// *plus* its own signal handler (nested emit), so an emit RESERVES its
// index first -- a compare_exchange on head_ before any slot word is
// touched -- and a nested emit therefore always writes a different slot
// than the frame it interrupted (writing the slot first and publishing
// with a head_ CAS afterwards loses the nested record: the resumed outer
// frame rewrites the slot the handler already published). The reserved
// index doubles as the record's sequence number, so per-ring seq is
// strictly increasing in ring order by construction. Each slot carries a
// claim word (2i+1 while index i's record is being written, 2i+2 once
// published) so the consumer never delivers a slot whose writer was
// interrupted mid-fill and detects overwrites that race its copy. The
// consumer (snapshot streamer) copies published records from tail up to
// the first unpublished slot and then compare_exchanges tail_ forward; if
// the CAS fails the producer advanced tail over some copied slots
// (drop-oldest under concurrent overwrite) and exactly those prefix
// copies are discarded.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "../util/debug_stats.h"
#include "../util/latency_hist.h"
#include "../util/padded.h"

namespace smr::obs {

/// The event taxonomy (DESIGN.md Section 12.1). Values are part of the
/// timeline format: the timeline names events through event_table, so
/// append-only.
enum class trace_event : int {
    thread_register,      // record_manager init_thread     (a0 = tid)
    thread_deregister,    // record_manager deinit_thread   (a0 = tid)
    neutralize_sent,      // DEBRA+ suspectNeutralized kill (a0 = target tid)
    neutralize_handled,   // handler ran non-quiescent, will longjmp
    neutralize_benign,    // handler ran quiescent, absorbed
    limbo_rotation,       // limbo-bag rotation             (a0 = bag blocks)
    scan_free,            // HP/HE/IBR/DEBRA+ scan batch    (a0 = bag size)
    epoch_advance,        // successful epoch CAS           (a0 = new epoch)
    era_advance,          // era clock tick on retire       (a0 = new era)
    arena_refill,         // arena magazine refill          (a0 = batch)
    arena_flush,          // arena magazine flush           (a0 = batch)
    neutralize_recovery,  // run_guarded's recovery arm after a longjmp
    COUNT
};

inline constexpr int N_TRACE_EVENTS = static_cast<int>(trace_event::COUNT);

/// What one event is, besides its ring record: its timeline name, the
/// debug_stats counter it bumps, and the latency.stalls column a timed
/// site files its duration under. stat::COUNT means no counter --
/// scan_free's counter is named by the scheme (hp_scans or era_scans);
/// stall_site::COUNT means the event is never timed.
struct event_info {
    std::string_view name;
    stat counter;
    stall_site column;
};

inline constexpr std::array<event_info, N_TRACE_EVENTS> event_table = {{
    {"thread_register", stat::COUNT, stall_site::COUNT},
    {"thread_deregister", stat::COUNT, stall_site::COUNT},
    {"neutralize_sent", stat::neutralize_signals_sent, stall_site::COUNT},
    {"neutralize_handled", stat::neutralize_signals_received,
     stall_site::COUNT},
    {"neutralize_benign", stat::benign_signals_received, stall_site::COUNT},
    {"limbo_rotation", stat::rotations, stall_site::rotation},
    {"scan_free", stat::COUNT, stall_site::scan_free},
    {"epoch_advance", stat::epochs_advanced, stall_site::COUNT},
    {"era_advance", stat::epochs_advanced, stall_site::COUNT},
    {"arena_refill", stat::COUNT, stall_site::arena},
    {"arena_flush", stat::COUNT, stall_site::arena},
    {"neutralize_recovery", stat::COUNT, stall_site::neutralize},
}};

/// One decoded record, consumer side.
struct event_record {
    std::uint64_t tsc = 0;  // raw lat_clock ticks
    trace_event ev = trace_event::COUNT;
    int tid = -1;
    std::uint32_t seq = 0;  // producer sequence (low 32 bits)
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
};

/// Fixed-capacity single-producer (one thread + its signal handler),
/// single-consumer, drop-oldest ring. Storage is allocated at
/// construction, on a non-signal path; emit() never allocates.
class event_ring {
  public:
    static constexpr std::size_t MIN_CAPACITY = 8;

    explicit event_ring(std::size_t capacity = 4096) {
        std::size_t cap = MIN_CAPACITY;
        while (cap < capacity) cap <<= 1;  // power of two for mask indexing
        cap_ = cap;
        mask_ = cap - 1;
        slots_ = std::make_unique<slot[]>(cap_);
    }

    event_ring(const event_ring&) = delete;
    event_ring& operator=(const event_ring&) = delete;

    std::size_t capacity() const noexcept { return cap_; }

    /// Producer path: owning thread or its signal handler. Lock-free,
    /// allocation-free, reentrancy-safe (see the cursor protocol above).
    // smr-lint: signal-safe (relaxed atomic slot writes + CAS reservation
    // on preallocated storage; no allocation, locking, or stdio)
    void emit(trace_event ev, int tid, std::uint64_t a0,
              std::uint64_t a1) noexcept {
        const std::uint64_t ts = lat_clock::now();
        // Reserve the index before touching any slot word: a nested
        // signal-handler emit landing anywhere past this CAS reserves a
        // different index, so a resumed outer frame can never rewrite a
        // slot the handler already published. The index is also the
        // record's sequence number (strictly increasing in ring order).
        std::uint64_t h = head_.load(std::memory_order_relaxed);
        while (!head_.compare_exchange_weak(h, h + 1,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
        }
        const std::uint64_t w1 =
            (static_cast<std::uint64_t>(ev) << 48) |
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(tid) &
                                        0xffffU)
             << 32) |
            static_cast<std::uint32_t>(h);
        // Drop-oldest: push tail past any record our write would lap.
        // Count the drop only when our CAS retired the record; a failed
        // CAS means the consumer (or a nested emit) moved tail and
        // nothing was lost on our account.
        std::uint64_t t = tail_.load(std::memory_order_acquire);
        while (h - t >= cap_) {
            if (tail_.compare_exchange_strong(t, t + 1,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
                dropped_.fetch_add(1, std::memory_order_relaxed);
                t = t + 1;
            }
        }
        // Claim (odd) -> fill -> publish (even). Word stores are release
        // so a consumer whose acquire copy loads read any of these values
        // also observes the claim store above and its post-check catches
        // the torn copy (release stores also keep the claim store from
        // sinking below them; no fences -- TSan does not model
        // atomic_thread_fence). The release publish pairs with the
        // consumer's acquire pre-check so a published record's words are
        // fully visible.
        slot& s = slots_[h & mask_];
        s.tag.store(2 * h + 1, std::memory_order_relaxed);
        s.w[0].store(ts, std::memory_order_release);
        s.w[1].store(w1, std::memory_order_release);
        s.w[2].store(a0, std::memory_order_release);
        s.w[3].store(a1, std::memory_order_release);
        s.tag.store(2 * h + 2, std::memory_order_release);
    }

    /// Consumer path (snapshot streamer): append every available record to
    /// `out` in emission order and advance tail. Returns the number
    /// appended. Copies whose slots the producer overwrote mid-copy are
    /// discarded here -- the producer already counted them as drops.
    std::size_t drain(std::vector<event_record>* out) {
        std::uint64_t t = tail_.load(std::memory_order_acquire);
        const std::uint64_t h = head_.load(std::memory_order_acquire);
        if (t >= h) return 0;
        scratch_.clear();
        std::uint64_t end = h;
        for (std::uint64_t i = t; i < h; ++i) {
            const slot& s = slots_[i & mask_];
            // Pre-check: only copy a published record-i slot (the acquire
            // pairs with the producer's release publish, making the word
            // stores visible). An unpublished slot is a reserved index
            // whose writer was interrupted mid-fill -- stop here and leave
            // [i, h) for the next drain so accounting stays exact.
            if (s.tag.load(std::memory_order_acquire) != 2 * i + 2) {
                end = i;
                break;
            }
            raw r;
            r.idx = i;
            r.w0 = s.w[0].load(std::memory_order_acquire);
            r.w1 = s.w[1].load(std::memory_order_acquire);
            r.w2 = s.w[2].load(std::memory_order_acquire);
            r.w3 = s.w[3].load(std::memory_order_acquire);
            // Post-check: a producer lapping us re-claims the slot (odd
            // tag) before its release word stores, so if any load above
            // caught a torn word it also made that claim store visible
            // here -- a torn copy cannot slip through with the old tag
            // intact. The lapped record is already in the producer's
            // drop count.
            if (s.tag.load(std::memory_order_relaxed) != 2 * i + 2) {
                end = i;
                break;
            }
            scratch_.push_back(r);
        }
        if (end <= t) return 0;  // oldest record not yet published
        // Claim [t, end). On CAS failure the producer advanced tail over
        // our prefix: entries below the new tail are possibly torn (and
        // already in the producer's drop count), so discard them and
        // retry.
        while (!tail_.compare_exchange_strong(t, end,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
            if (t >= end) return 0;  // everything we copied was overwritten
        }
        std::size_t n = 0;
        for (const raw& r : scratch_) {
            if (r.idx < t) continue;  // dropped under our feet
            event_record rec;
            // Ring order is the authoritative event order; a nested emit
            // can read the clock out of reservation order (by the width of
            // a signal handler), so delivered timestamps clamp monotone
            // non-decreasing per ring -- trace_export --check enforces
            // monotone per-track time.
            if (r.w0 < last_tsc_) {
                rec.tsc = last_tsc_;
            } else {
                rec.tsc = r.w0;
                last_tsc_ = r.w0;
            }
            rec.ev = static_cast<trace_event>(r.w1 >> 48);
            rec.tid = static_cast<int>((r.w1 >> 32) & 0xffffU);
            rec.seq = static_cast<std::uint32_t>(r.w1);
            rec.arg0 = r.w2;
            rec.arg1 = r.w3;
            out->push_back(rec);
            ++n;
        }
        return n;
    }

    /// Producer-side drop count (monotone; surfaced in every snapshot).
    std::uint64_t dropped() const noexcept {
        return dropped_.load(std::memory_order_relaxed);
    }

    /// Records emitted so far (indices reserved; monotone).
    std::uint64_t emitted() const noexcept {
        return head_.load(std::memory_order_relaxed);
    }

  private:
    struct slot {
        // Claim/publish word: 2i+1 while index i's record is being
        // written, 2i+2 once published (monotone across laps, so a stale
        // or in-progress slot never matches the consumer's expectation).
        std::atomic<std::uint64_t> tag{0};
        std::array<std::atomic<std::uint64_t>, 4> w{};
    };
    struct raw {
        std::uint64_t idx, w0, w1, w2, w3;
    };

    std::size_t cap_ = 0;
    std::size_t mask_ = 0;
    std::unique_ptr<slot[]> slots_;
    alignas(PREFETCH_LINE) std::atomic<std::uint64_t> head_{0};
    alignas(PREFETCH_LINE) std::atomic<std::uint64_t> tail_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::vector<raw> scratch_;       // consumer-only staging
    std::uint64_t last_tsc_ = 0;     // consumer-only monotone clamp
};

/// The process-wide trace: one ring per tid, swapped in by enable() on a
/// non-signal path and read by the streamer. All members are trivially
/// initializable so the `inline` global below needs no runtime init guard
/// (a guarded static's lock is not async-signal-safe).
class event_trace {
  public:
    /// Allocate rings and arm emission. Call on the main thread before
    /// workers start; not thread-safe against emit from live workers.
    void enable(int max_tids, std::size_t ring_capacity) {
        disable();
        auto* t = new table();
        t->n = max_tids > MAX_THREADS ? MAX_THREADS : max_tids;
        t->rings.reserve(static_cast<std::size_t>(t->n));
        for (int i = 0; i < t->n; ++i)
            t->rings.push_back(std::make_unique<event_ring>(ring_capacity));
        rings_.store(t, std::memory_order_release);
    }

    /// Disarm and free. Caller guarantees no producer is mid-emit (workers
    /// joined / quiescent) -- the harness disables only after joining.
    void disable() {
        table* t = rings_.exchange(nullptr, std::memory_order_acq_rel);
        delete t;
    }

    bool enabled() const noexcept {
        return rings_.load(std::memory_order_relaxed) != nullptr;
    }

    int max_tids() const noexcept {
        const table* t = rings_.load(std::memory_order_acquire);
        return t != nullptr ? t->n : 0;
    }

    /// The ring for one tid (consumer side), or nullptr when disabled or
    /// out of range.
    event_ring* ring(int tid) noexcept {
        table* t = rings_.load(std::memory_order_acquire);
        if (t == nullptr || tid < 0 || tid >= t->n) return nullptr;
        return t->rings[static_cast<std::size_t>(tid)].get();
    }

    /// Sum of producer drop counts across all rings.
    std::uint64_t total_dropped() noexcept {
        std::uint64_t sum = 0;
        const table* t = rings_.load(std::memory_order_acquire);
        if (t == nullptr) return 0;
        for (const auto& r : t->rings) sum += r->dropped();
        return sum;
    }

    /// Sum of records emitted across all rings.
    std::uint64_t total_emitted() noexcept {
        std::uint64_t sum = 0;
        const table* t = rings_.load(std::memory_order_acquire);
        if (t == nullptr) return 0;
        for (const auto& r : t->rings) sum += r->emitted();
        return sum;
    }

    /// Producer fast path. Disabled: one relaxed load + branch. The load
    /// is acquire only on the armed path (x86: same instruction) so a
    /// worker that never synchronized with enable() still sees fully
    /// constructed rings.
    // smr-lint: signal-safe (pointer load + bounds check + ring emit; the
    // disabled path is one load and a branch)
    void emit(int tid, trace_event ev, std::uint64_t a0,
              std::uint64_t a1) noexcept {
        table* t = rings_.load(std::memory_order_acquire);
        if (t == nullptr || tid < 0 || tid >= t->n) return;
        t->rings[static_cast<std::size_t>(tid)]->emit(ev, tid, a0, a1);
    }

  private:
    struct table {
        int n = 0;
        std::vector<std::unique_ptr<event_ring>> rings;
    };
    std::atomic<table*> rings_{nullptr};
};

/// The process-wide trace instance. An inline variable (zero-initialized,
/// no init guard) so the DEBRA+ signal handler can emit through it safely.
inline event_trace g_event_trace;

/// The ring half of instant() and timed below, and the smr_lint SS1
/// signal-safety root for the event-ring record path: everything reachable
/// from here must stay in the no-alloc/no-lock closure.
// smr-lint: signal-safe (delegates to event_trace::emit; reachability root
// for the tracing record path)
inline void trace_emit(int tid, trace_event ev, std::uint64_t a0 = 0,
                       std::uint64_t a1 = 0) noexcept {
    g_event_trace.emit(tid, ev, a0, a1);
}

/// One instant event: bumps the event's counter (event_table; `counter`
/// overrides it -- scan_free's is named by the scheme) unless `stats` is
/// null, then emits the ring record: at most one relaxed add and one
/// trace-enabled load.
// smr-lint: signal-safe (debug_stats::add plus trace_emit; the neutralize
// handler's events go through here)
inline void instant(debug_stats* stats, int tid, trace_event ev,
                    std::uint64_t a0 = 0, std::uint64_t a1 = 0,
                    stat counter = stat::COUNT) noexcept {
    if (counter == stat::COUNT)
        counter = event_table[static_cast<std::size_t>(ev)].counter;
    if (stats != nullptr && counter != stat::COUNT) stats->add(tid, counter);
    trace_emit(tid, ev, a0, a1);
}

/// RAII bracket for a timed event: on entry it reads the clock and makes
/// the instant() call; on exit it files the elapsed time under the
/// event's stall column (event_table). A null `stats` skips the clock,
/// the counter and the duration; the ring record is still emitted.
class timed {
  public:
    // smr-lint: signal-safe (lat_clock::now plus instant; the recovery
    // arm's bracket opens here)
    timed(debug_stats* stats, int tid, trace_event ev, std::uint64_t a0 = 0,
          std::uint64_t a1 = 0, stat counter = stat::COUNT) noexcept
        : stats_(stats), tid_(tid), ev_(ev),
          t0_(stats != nullptr ? lat_clock::now() : 0) {
        assert(event_table[static_cast<std::size_t>(ev)].column !=
               stall_site::COUNT);
        instant(stats, tid, ev, a0, a1, counter);
    }

    timed(const timed&) = delete;
    timed& operator=(const timed&) = delete;

    // smr-lint: signal-safe (lat_clock::now plus debug_stats::stall; the
    // recovery arm's bracket closes here)
    ~timed() {
        if (stats_ != nullptr) {
            stats_->stall(tid_,
                          event_table[static_cast<std::size_t>(ev_)].column,
                          lat_clock::to_nanos(lat_clock::now() - t0_));
        }
    }

  private:
    debug_stats* stats_;
    int tid_;
    trace_event ev_;
    std::uint64_t t0_;
};

}  // namespace smr::obs
