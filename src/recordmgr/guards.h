// guards.h -- the RAII layer over the record_manager vocabulary.
//
// The paper's operation vocabulary (Section 6) is deliberately minimal:
// leave_qstate/enter_qstate bracket every operation, protect/unprotect
// bracket every hazardous dereference, and every call names an explicit
// thread id. That minimalism is also a misuse surface: a forgotten
// unprotect on one exit path leaks a hazard slot forever, an unpaired
// enter_qstate wedges the epoch, and a mistyped tid corrupts another
// thread's announcement. Production SMR libraries (folly's hazptr_holder,
// xenium's guard_ptr) close that surface with RAII; this header does the
// same for every scheme behind record_manager, at zero cost:
//
//   * accessor<Mgr>   binds (manager, tid) once, so the tid disappears
//                     from call sites: acc.new_record<T>(), acc.retire(p),
//                     acc.protect(p, validate) -> guard_ptr;
//   * guard_ptr       owns exactly one per-access protection. Move-only,
//                     released on destruction and reassignment. For epoch
//                     schemes (per_access_protection == false) it *is* a
//                     bare pointer: trivially destructible, pointer-sized,
//                     enforced by static_assert -- the guard layer
//                     compiles away exactly where the paper's protect()
//                     does;
//   * guard_span      owns N per-access protections at once: the bulk
//                     flavour for operations -- range queries above all --
//                     that must keep a changing set of records safe
//                     simultaneously. Move-only; release(p) drops one
//                     record, destruction/reset everything; records its
//                     protections in a grow-on-demand array (small inline
//                     buffer, heap doubling past it). For epoch schemes it
//                     is an empty, trivially destructible token
//                     (static_assert-enforced, like guard_ptr), so spans
//                     are legal inside run_guarded bodies under
//                     neutralizing schemes;
//   * op_guard        brackets leave_qstate/enter_qstate for one
//                     operation of a non-neutralizing scheme;
//   * run_guarded     the op_guard discipline composed with run_op: for
//                     neutralization-capable schemes (DEBRA+) the body
//                     automatically runs under the sigsetjmp recovery
//                     point, with the Figure-5 quiescent bracketing and
//                     RUnprotectAll supplied by the wrapper.
//
// The raw record_manager calls remain public and documented: they are the
// back-end this layer lowers onto, and single-threaded setup/teardown code
// (constructors, destructors, tests of the schemes themselves) may still
// use them directly.
//
// Thread registration lives in thread_registry.h (thread_handle); this
// header is independent of it.
#pragma once

#include <cassert>
#include <cstddef>
#include <type_traits>
#include <utility>

#include "../obs/event_ring.h"

namespace smr {

template <class Mgr>
class thread_handle;  // thread_registry.h

// ---- guard_ptr -----------------------------------------------------------

/// Owns one per-access protection of `T* p` under manager `Mgr`.
/// Specialized on Mgr::per_access_protection so that epoch schemes pay
/// nothing: the primary template is the hazard flavour, the `false`
/// specialization is a bare pointer.
template <class Mgr, class T, bool PerAccess = Mgr::per_access_protection>
class guard_ptr {
  public:
    guard_ptr() noexcept = default;

    /// Adopts a protection already announced for p (accessor::protect is
    /// the intended caller). A null p makes an empty guard.
    guard_ptr(Mgr* mgr, int tid, T* p) noexcept : mgr_(mgr), tid_(tid), p_(p) {
        if (p_ != nullptr) mgr_->guard_acquired(tid_);
    }

    guard_ptr(const guard_ptr&) = delete;
    guard_ptr& operator=(const guard_ptr&) = delete;

    guard_ptr(guard_ptr&& o) noexcept : mgr_(o.mgr_), tid_(o.tid_), p_(o.p_) {
        o.p_ = nullptr;
    }
    guard_ptr& operator=(guard_ptr&& o) noexcept {
        if (this != &o) {
            reset();
            mgr_ = o.mgr_;
            tid_ = o.tid_;
            p_ = o.p_;
            o.p_ = nullptr;
        }
        return *this;
    }

    ~guard_ptr() { reset(); }

    /// Releases the protection (hazard slot / era claim) immediately.
    /// Routes through the per-pointer unprotect -- never through
    /// enter_qstate, which would flip the quiescence announcement of a
    /// quiescence-tracking scheme mid-operation.
    void reset() noexcept {
        if (p_ != nullptr) {
            mgr_->unprotect(tid_, p_);
            mgr_->guard_released(tid_);
            p_ = nullptr;
        }
    }

    T* get() const noexcept { return p_; }
    T& operator*() const noexcept { return *p_; }
    T* operator->() const noexcept { return p_; }
    explicit operator bool() const noexcept { return p_ != nullptr; }

  private:
    Mgr* mgr_ = nullptr;
    int tid_ = 0;
    T* p_ = nullptr;
};

/// Epoch flavour: protection is the operation's epoch announcement, so the
/// guard is the pointer. Kept move-only (and nulled on move) for API parity
/// with the hazard flavour; the compiler erases all of it.
template <class Mgr, class T>
class guard_ptr<Mgr, T, false> {
  public:
    guard_ptr() noexcept = default;
    constexpr guard_ptr(Mgr*, int, T* p) noexcept : p_(p) {}

    guard_ptr(const guard_ptr&) = delete;
    guard_ptr& operator=(const guard_ptr&) = delete;

    guard_ptr(guard_ptr&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
    guard_ptr& operator=(guard_ptr&& o) noexcept {
        if (this != &o) {
            p_ = o.p_;
            o.p_ = nullptr;
        }
        return *this;
    }

    ~guard_ptr() = default;

    void reset() noexcept { p_ = nullptr; }

    T* get() const noexcept { return p_; }
    T& operator*() const noexcept { return *p_; }
    T* operator->() const noexcept { return p_; }
    explicit operator bool() const noexcept { return p_ != nullptr; }

  private:
    T* p_ = nullptr;
};

// ---- guard_span ----------------------------------------------------------

/// Owns N per-access protections at once under manager `Mgr` -- the bulk
/// counterpart of guard_ptr, for operations that must hold many records
/// safe simultaneously (a range scan's DFS stack, a traversal snapshot).
///
/// Per-scheme lowering:
///   * HP  -- every protect() claims one hazard slot; the per-thread slot
///     array grows on demand (chained chunks, see reclaimer_hp.h), so a
///     span is not limited to the base slot budget;
///   * HE  -- protects alias era slots, so a span of any size usually
///     publishes only a handful of eras: the span is a widened era set
///     covering every record it admitted;
///   * IBR -- the thread's reservation interval is the protection; each
///     protect() merely widens the interval to the current era, and
///     release is free;
///   * epoch schemes -- the `false` specialization below: empty, trivially
///     destructible, nothing at run time.
///
/// The span records what it protected in a grow-on-demand array (inline
/// buffer of 16, heap doubling beyond). release(p) drops one record the
/// caller is done with -- a DFS keeps only its stack -- and reset() or
/// destruction releases the rest in reverse order. Like guard_ptr, a span
/// must die before the operation that justified it ends (op_guard /
/// run_guarded assert this in debug builds via the manager's live-guard
/// accounting).
template <class Mgr, bool PerAccess = Mgr::per_access_protection>
class guard_span {
  public:
    guard_span() noexcept = default;
    guard_span(Mgr* mgr, int tid) noexcept : mgr_(mgr), tid_(tid) {}

    guard_span(const guard_span&) = delete;
    guard_span& operator=(const guard_span&) = delete;

    guard_span(guard_span&& o) noexcept
        : mgr_(o.mgr_), tid_(o.tid_), heap_(o.heap_), count_(o.count_),
          cap_(o.cap_) {
        for (std::size_t i = 0; i < o.count_ && i < INLINE_CAP; ++i) {
            inline_[i] = o.inline_[i];
        }
        o.heap_ = nullptr;
        o.count_ = 0;
        o.cap_ = INLINE_CAP;
    }
    guard_span& operator=(guard_span&& o) noexcept {
        if (this != &o) {
            reset();
            delete[] heap_;
            mgr_ = o.mgr_;
            tid_ = o.tid_;
            heap_ = o.heap_;
            count_ = o.count_;
            cap_ = o.cap_;
            for (std::size_t i = 0; i < o.count_ && i < INLINE_CAP; ++i) {
                inline_[i] = o.inline_[i];
            }
            o.heap_ = nullptr;
            o.count_ = 0;
            o.cap_ = INLINE_CAP;
        }
        return *this;
    }

    ~guard_span() {
        reset();
        delete[] heap_;
    }

    /// Admits `p` into the span: protects it (announce + fence + validate,
    /// exactly accessor::protect) and records it for bulk release. Returns
    /// false when validation rejects the record -- the caller restarts as
    /// it would on a failed guard_ptr. A null p is a no-op success.
    template <class T, class ValidateFn>
    [[nodiscard]] bool protect(T* p, ValidateFn&& validate) {
        if (p == nullptr) return true;
        if (!mgr_->protect(tid_, p, std::forward<ValidateFn>(validate))) {
            return false;
        }
        push(p);
        mgr_->guard_acquired(tid_);
        return true;
    }

    /// Protection without validation: for records that cannot be retired
    /// while this call runs (sentinels; records already covered by this
    /// span or another live guard).
    template <class T>
    [[nodiscard]] bool protect(T* p) {
        return protect(p, [] { return true; });
    }

    /// Releases the newest protection of `p` this span holds, through the
    /// same per-pointer unprotect as reset(), and drops it from the
    /// record. The search runs from the newest end, where a traversal's
    /// just-finished record sits (a DFS node is released right after its
    /// children are admitted, two entries below the top). A pointer the
    /// span does not hold is a no-op.
    void release(const void* p) noexcept {
        const void** s = slots();
        for (std::size_t i = count_; i-- > 0;) {
            if (s[i] != p) continue;
            mgr_->unprotect(tid_, p);
            mgr_->guard_released(tid_);
            for (--count_; i < count_; ++i) s[i] = s[i + 1];
            return;
        }
    }

    /// Releases every protection this span holds, newest first. The
    /// order is what makes HP's release O(1): reclaimer_hp's unprotect
    /// searches down from the top of the thread's slot row, where the
    /// newest protection sits. The recording storage is kept for reuse (a
    /// restarting scan re-fills it without reallocating).
    void reset() noexcept {
        const void** s = slots();
        for (std::size_t i = count_; i-- > 0;) {
            mgr_->unprotect(tid_, s[i]);
            mgr_->guard_released(tid_);
        }
        count_ = 0;
    }

    /// Number of live protections held.
    std::size_t size() const noexcept { return count_; }
    bool empty() const noexcept { return count_ == 0; }

  private:
    static constexpr std::size_t INLINE_CAP = 16;

    const void** slots() noexcept { return heap_ != nullptr ? heap_ : inline_; }

    void push(const void* p) {
        if (count_ == cap_) grow();
        slots()[count_++] = p;
    }

    void grow() {
        const std::size_t new_cap = cap_ * 2;
        const void** fresh = new const void*[new_cap];
        const void** s = slots();
        for (std::size_t i = 0; i < count_; ++i) fresh[i] = s[i];
        delete[] heap_;
        heap_ = fresh;
        cap_ = new_cap;
    }

    Mgr* mgr_ = nullptr;
    int tid_ = 0;
    const void* inline_[INLINE_CAP];
    const void** heap_ = nullptr;
    std::size_t count_ = 0;
    std::size_t cap_ = INLINE_CAP;
};

/// Epoch flavour: the operation's epoch announcement already covers every
/// record the span could admit, so the span is an empty token. Kept
/// move-only and API-identical for parity; trivially destructible so it is
/// legal inside run_guarded bodies (a neutralization longjmp may skip its
/// destructor).
template <class Mgr>
class guard_span<Mgr, false> {
  public:
    guard_span() noexcept = default;
    constexpr guard_span(Mgr*, int) noexcept {}

    guard_span(const guard_span&) = delete;
    guard_span& operator=(const guard_span&) = delete;
    guard_span(guard_span&&) noexcept = default;
    guard_span& operator=(guard_span&&) noexcept = default;
    ~guard_span() = default;

    template <class T, class ValidateFn>
    [[nodiscard]] bool protect(T*, ValidateFn&&) noexcept {
        return true;
    }
    template <class T>
    [[nodiscard]] bool protect(T*) noexcept {
        return true;
    }
    void release(const void*) noexcept {}
    void reset() noexcept {}
    std::size_t size() const noexcept { return 0; }
    bool empty() const noexcept { return true; }
};

// ---- op_guard ------------------------------------------------------------

/// Brackets one data structure operation: leave_qstate on construction,
/// enter_qstate on destruction. For schemes with per-access protection the
/// destructor asserts (debug builds) that no guard_ptr outlives the
/// operation -- the misuse the RAII layer exists to catch.
///
/// Not for neutralization-capable schemes' operation bodies: a signal
/// would siglongjmp across this object's non-yet-run destructor. Use
/// accessor::run_guarded there (it brackets with plain calls around the
/// sigsetjmp recovery point).
template <class Mgr>
class op_guard {
  public:
    op_guard() noexcept = default;
    op_guard(Mgr& mgr, int tid) : mgr_(&mgr), tid_(tid) {
        mgr_->leave_qstate(tid_);
    }

    op_guard(const op_guard&) = delete;
    op_guard& operator=(const op_guard&) = delete;

    op_guard(op_guard&& o) noexcept : mgr_(o.mgr_), tid_(o.tid_) {
        o.mgr_ = nullptr;
    }
    op_guard& operator=(op_guard&& o) noexcept {
        if (this != &o) {
            finish();
            mgr_ = o.mgr_;
            tid_ = o.tid_;
            o.mgr_ = nullptr;
        }
        return *this;
    }

    ~op_guard() { finish(); }

    /// Ends the operation early (idempotent).
    void finish() noexcept {
        if (mgr_ == nullptr) return;
        if constexpr (Mgr::per_access_protection) {
            assert(mgr_->live_guard_count(tid_) == 0 &&
                   "guard_ptr outlives its op_guard: a protection would leak "
                   "past the end of the operation that justified it");
        }
        mgr_->enter_qstate(tid_);
        mgr_ = nullptr;
    }

  private:
    Mgr* mgr_ = nullptr;
    int tid_ = 0;
};

// ---- accessor ------------------------------------------------------------

/// Binds (manager, tid) and exposes the whole record_manager vocabulary
/// without tid parameters. Copyable and two words wide -- pass by value.
///
/// Obtain one from mgr.access(thread_handle) (the checked path), or
/// construct directly from a raw tid when bridging from back-end code that
/// manages registration itself (single-threaded constructors/destructors,
/// scheme tests).
template <class Mgr>
class accessor {
  public:
    using manager_type = Mgr;
    template <class T>
    using guard = guard_ptr<Mgr, T>;
    using span = guard_span<Mgr>;

    accessor(Mgr& mgr, int tid) noexcept : mgr_(&mgr), tid_(tid) {}

    int tid() const noexcept { return tid_; }
    Mgr& manager() const noexcept { return *mgr_; }
    debug_stats& stats() const noexcept { return mgr_->stats(); }

    /// Records a per-thread statistic for this accessor's thread.
    void note(stat s) const noexcept { mgr_->stats().add(tid_, s); }

    // ---- record lifecycle ------------------------------------------------

    template <class T>
    T* allocate() const {
        return mgr_->template allocate<T>(tid_);
    }
    template <class T, class... Args>
    T* new_record(Args&&... args) const {
        return mgr_->template new_record<T>(tid_, std::forward<Args>(args)...);
    }
    template <class T>
    void deallocate(T* p) const {
        mgr_->deallocate(tid_, p);
    }
    template <class T>
    void retire(T* p) const {
        mgr_->retire(tid_, p);
    }

    // ---- per-access protection -------------------------------------------

    /// Protects p for dereference (or use as a CAS expected value),
    /// validating with `validate` after the announcement fence. Returns an
    /// owning guard; an empty guard for a non-null p means validation
    /// failed and the caller must behave as if it lost a race. For epoch
    /// schemes this compiles to wrapping the pointer -- enforced below.
    template <class T, class ValidateFn>
    [[nodiscard]] guard<T> protect(T* p, ValidateFn&& validate) const {
        if constexpr (!Mgr::per_access_protection) {
            static_assert(std::is_trivially_destructible_v<guard<T>> &&
                              sizeof(guard<T>) == sizeof(T*),
                          "epoch-scheme guard_ptr must stay a bare pointer");
            (void)validate;
            return guard<T>(mgr_, tid_, p);
        } else {
            if (p == nullptr) return {};
            if (!mgr_->protect(tid_, p, std::forward<ValidateFn>(validate)))
                return {};
            return guard<T>(mgr_, tid_, p);
        }
    }

    /// Protection without validation: for records that cannot be retired
    /// while this call runs (sentinels; records the caller already holds a
    /// guard or lock on).
    template <class T>
    [[nodiscard]] guard<T> protect(T* p) const {
        return protect(p, [] { return true; });
    }

    /// Mints an empty bulk-protection owner bound to this accessor. For
    /// epoch schemes the span is an empty trivially destructible token --
    /// enforced here, mirroring the guard_ptr bare-pointer guarantee -- so
    /// range scans cost per-access schemes exactly their protections and
    /// epoch schemes nothing.
    [[nodiscard]] span make_span() const {
        if constexpr (!Mgr::per_access_protection) {
            static_assert(std::is_trivially_destructible_v<span> &&
                              std::is_empty_v<span>,
                          "epoch-scheme guard_span must stay an empty token");
        }
        return span(mgr_, tid_);
    }

    /// Releases every per-access protection this thread holds, via the
    /// scheme's dedicated hazard-clear path (quiescence is untouched).
    /// Guard-owned protections are normally released by their guards; this
    /// is the bulk escape hatch for traversal restarts in back-end code.
    void clear_protections() const { mgr_->clear_protections(tid_); }

    // ---- operation bracketing --------------------------------------------

    /// RAII leave_qstate/enter_qstate bracket for one operation.
    [[nodiscard]] op_guard<Mgr> op() const { return op_guard<Mgr>(*mgr_, tid_); }

    /// One data structure operation with the scheme-appropriate recovery
    /// harness (the paper's Figure 5 shape):
    ///
    ///   body()     -> bool done : runs non-quiescent, bracketed by
    ///                 leave_qstate/enter_qstate. Returning false retries.
    ///   recovery() -> bool done : runs quiescent after a neutralization
    ///                 longjmp. Returning false restarts the body.
    ///
    /// For schemes without crash recovery the sigsetjmp is compiled out and
    /// this is a plain bracketed retry loop. RUnprotectAll runs after both
    /// body and recovery, matching Figure 5.
    ///
    /// Contract (neutralizing schemes): the body must keep only trivially
    /// destructible locals -- epoch guards qualify, and neutralizing
    /// schemes are epoch schemes -- and must not perform non-reentrant
    /// actions (allocation, bag manipulation, I/O); those belong in the
    /// quiescent preamble/postamble around this call.
    template <class BodyFn, class RecoveryFn>
    void run_guarded(BodyFn&& body, RecoveryFn&& recovery) const {
        Mgr* mgr = mgr_;
        const int tid = tid_;
        mgr->run_op(
            tid,
            [&](int) {
                mgr->leave_qstate(tid);
                const bool done = body();
                if constexpr (Mgr::per_access_protection) {
                    assert(mgr->live_guard_count(tid) == 0 &&
                           "guard_ptr outlives its run_guarded body");
                }
                mgr->enter_qstate(tid);
                mgr->runprotect_all(tid);
                return done;
            },
            [&](int) {
                // This arm only runs after a neutralization longjmp
                // (quiescent, signals benign), so its duration is the
                // neutralization recovery cost.
                obs::timed recovering(&mgr->stats(), tid,
                                      obs::trace_event::neutralize_recovery);
                const bool done = recovery();
                mgr->runprotect_all(tid);
                return done;
            });
    }

    // ---- raw vocabulary (documented back-end) ----------------------------

    bool leave_qstate() const { return mgr_->leave_qstate(tid_); }
    void enter_qstate() const { mgr_->enter_qstate(tid_); }
    bool is_quiescent() const { return mgr_->is_quiescent(tid_); }

    template <class T>
    bool rprotect(T* p) const {
        return mgr_->rprotect(tid_, p);
    }
    void runprotect_all() const { mgr_->runprotect_all(tid_); }
    template <class T>
    bool is_rprotected(T* p) const {
        return mgr_->is_rprotected(tid_, p);
    }

  private:
    Mgr* mgr_;
    int tid_;
};

}  // namespace smr
