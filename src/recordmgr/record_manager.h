// record_manager.h -- the paper's lock-free memory management abstraction
// (Section 6).
//
// A record_manager composes a Reclaimer scheme, an Allocator policy, and a
// Pool policy over a fixed set of record types, and exposes the operation
// vocabulary the paper identifies as sufficient for HPs, EBR, DEBRA and
// DEBRA+ alike:
//
//   lifecycle   : allocate<T>, deallocate<T>, retire
//   quiescence  : leave_qstate, enter_qstate, is_quiescent
//   per-access  : protect(record, validate), unprotect, is_protected
//   recovery    : rprotect, runprotect_all, is_rprotected, run_op
//   introspection: stats(), limbo_size<T>, traits
//
// The scheme contract. A scheme's compile-time traits decide which hooks
// its global state supplies, and the manager answers every hook a trait
// rules out, so each scheme defines only the hooks it gives meaning to:
//
//   quiescence_based         leave_qstate, enter_qstate, is_quiescent.
//                            Without it leave_qstate and is_quiescent are
//                            false and enter_qstate is clear_protections.
//   per_access_protection    protect, unprotect, is_protected,
//                            clear_hazards. Without it protect and
//                            is_protected are true, the others no-ops.
//   supports_crash_recovery  rprotect, runprotect_all, is_rprotected,
//                            jmp_env, prepare_recovery, and a limbo
//                            pressure argument to leave_qstate. Without it
//                            rprotect is true, is_rprotected false,
//                            runprotect_all a no-op, and run_op has no
//                            sigsetjmp.
//
// init_thread and deinit_thread are optional. So for DEBRA, protect()
// compiles to `return true` and vanishes; for schemes without crash
// recovery, run_op() contains no sigsetjmp (the paper's
// supportsCrashRecovery predicate). Changing the reclamation scheme of a
// data structure is exactly one template argument.
//
// Global state (epoch counter, announcement words, hazard slots) is shared
// across the manager's record types; limbo bags and pools are per-type so a
// record's storage always returns to an allocator of the right type.
//
// Era stamping: schemes that track record lifetimes (Hazard Eras, IBR)
// declare a `stored<T>` member template mapping each managed type to a
// wrapper with a per-record header (era_record<T>). The manager then
// allocates/pools the wrapper and hands the data structure &wrapper->value,
// stamping birth_era on allocate and retire_era on retire -- the structure
// code and the managed types are untouched, so the one-template-argument
// swap claim extends to the era family.
// RAII front-end: callers normally register threads with a thread_handle
// (auto-assigned tid from the manager's lock-free registry) and operate
// through accessor / guard_ptr / op_guard (guards.h), which bind the tid
// once and release protections and quiescence brackets on every exit path.
// The raw tid-taking calls below remain the documented back-end that layer
// lowers onto.
#pragma once

#include <setjmp.h>

#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <memory>
#include <tuple>
#include <type_traits>

#include "../mem/block.h"
#include "../mem/block_pool.h"
#include "../obs/event_ring.h"
#include "../util/debug_stats.h"
#include "../util/padded.h"
#include "guards.h"
#include "policies.h"
#include "thread_registry.h"

namespace smr {

namespace rm_detail {

/// Maps a managed type to its stored type: T itself, unless the scheme
/// publishes a `stored<T>` wrapper (era schemes' per-record header).
template <class Scheme, class T, class = void>
struct stored_type {
    using type = T;
    static constexpr bool stamped = false;
};
template <class Scheme, class T>
struct stored_type<Scheme, T,
                   std::void_t<typename Scheme::template stored<T>>> {
    using type = typename Scheme::template stored<T>;
    static constexpr bool stamped = true;
};

}  // namespace rm_detail

template <class Scheme, class AllocTag, class PoolTag, class... Ts>
class record_manager {
    static_assert(sizeof...(Ts) >= 1, "manage at least one record type");
    static_assert((std::is_trivially_destructible_v<Ts> && ...),
                  "managed records must be trivially destructible: their "
                  "storage is recycled without running destructors");

  public:
    static constexpr int BLOCK_SIZE = mem::DEFAULT_BLOCK_SIZE;
    static constexpr const char* scheme_name = Scheme::name;
    static constexpr bool supports_crash_recovery =
        Scheme::supports_crash_recovery;
    static constexpr bool is_fault_tolerant = Scheme::is_fault_tolerant;
    static constexpr bool quiescence_based = Scheme::quiescence_based;
    static constexpr bool per_access_protection = Scheme::per_access_protection;

    using scheme = Scheme;
    using config_t = typename Scheme::config;

    // The RAII layer's types, named from the manager so data structures
    // can spell them without including guards.h themselves.
    using accessor_t = smr::accessor<record_manager>;
    using handle_t = smr::thread_handle<record_manager>;
    template <class T>
    using guard_t = smr::guard_ptr<record_manager, T>;
    /// Bulk protection owner (accessor::make_span()): N per-access
    /// protections released together; empty + trivially destructible for
    /// epoch schemes, so spans compose with run_guarded recovery bodies.
    using span_t = smr::guard_span<record_manager>;

    /// Schemes may publish non-default configs (e.g. classic EBR's
    /// scan-everything mode); otherwise value-initialize.
    static config_t default_config() {
        if constexpr (requires { Scheme::default_config(); }) {
            return Scheme::default_config();
        } else {
            return config_t{};
        }
    }

    explicit record_manager(int num_threads,
                            config_t cfg = default_config())
        : num_threads_(require_thread_count(num_threads)),
          global_(num_threads, cfg, &stats_),
          bundles_(std::make_unique<bundle<Ts>>(num_threads, global_,
                                                &stats_)...) {}

    record_manager(const record_manager&) = delete;
    record_manager& operator=(const record_manager&) = delete;

    // ---- thread lifecycle ------------------------------------------------
    //
    // Prefer the RAII path: register_thread() returns a thread_handle whose
    // destructor deregisters, and access(handle) mints the accessor the
    // data structures take. The raw init/deinit pair below remains for
    // back-end code that coordinates tids itself.

    /// Registers the calling thread under an auto-assigned tid.
    [[nodiscard]] handle_t register_thread() { return handle_t(*this); }

    /// Registers the calling thread under a caller-chosen tid (harnesses
    /// and tests that index results by tid).
    [[nodiscard]] handle_t register_thread(int tid) {
        return handle_t(*this, tid);
    }

    /// Registration plus placement: pins the calling thread per the
    /// topology layer's policy (none / compact / scatter) before any
    /// memory is touched, so first-touch and arena homes land on the
    /// pinned socket.
    [[nodiscard]] handle_t register_thread(int tid, topo::pin_policy pin) {
        return handle_t(*this, tid, pin);
    }

    /// The accessor bound to a live registration of this manager.
    accessor_t access(const handle_t& h) {
        assert(h.engaged() && "access: handle was moved-from or reset");
        assert(&h.manager() == this && "access: handle belongs to another "
                                       "record_manager");
        return accessor_t(*this, h.tid());
    }

    thread_registry& registry() noexcept { return registry_; }

    /// Must be called on the thread that will use `tid`, before any other
    /// call with that tid. For DEBRA+ this registers the thread as a
    /// neutralization target. A tid outside [0, num_threads) aborts in
    /// every build; registering a tid that is already registered is a
    /// usage error (debug assert).
    void init_thread(int tid) {
        require_tid_in_range("init_thread", tid, num_threads_);
        auto& st = *lifecycle_[tid];
        assert(st.load(std::memory_order_relaxed) != LIFE_REGISTERED &&
               "init_thread: tid is already registered (double init)");
        st.store(LIFE_REGISTERED, std::memory_order_relaxed);
        if constexpr (requires { global_.init_thread(tid); }) {
            global_.init_thread(tid);
        }
        obs::instant(&stats_, tid, obs::trace_event::thread_register,
                     static_cast<std::uint64_t>(tid));
    }

    /// Must be called on the owning thread when it is done. Idempotent: a
    /// second deinit of the same registration is a no-op (the seed's
    /// silent double-deinit corrupted DEBRA+'s neutralization target set);
    /// deinit of a tid that was never registered is a usage error (debug
    /// assert). Once this returns the thread may exit -- for DEBRA+ the
    /// scheme itself drains in-flight neutralization signals (see
    /// reclaimer_debra_plus.h), so no external barrier is needed.
    void deinit_thread(int tid) {
        assert(tid >= 0 && tid < num_threads_ &&
               "deinit_thread: tid out of range");
        if (tid < 0 || tid >= num_threads_) return;
        auto& st = *lifecycle_[tid];
        if (st.load(std::memory_order_relaxed) != LIFE_REGISTERED) {
            assert(st.load(std::memory_order_relaxed) == LIFE_PARKED &&
                   "deinit_thread: tid was never registered");
            return;  // double deinit: idempotent by design
        }
        obs::instant(&stats_, tid, obs::trace_event::thread_deregister,
                     static_cast<std::uint64_t>(tid));
        st.store(LIFE_PARKED, std::memory_order_relaxed);
        if constexpr (requires { global_.deinit_thread(tid); }) {
            global_.deinit_thread(tid);
        }
    }

    /// Whether `tid` currently has a live registration.
    bool is_thread_registered(int tid) const {
        return tid >= 0 && tid < num_threads_ &&
               lifecycle_[tid]->load(std::memory_order_relaxed) ==
                   LIFE_REGISTERED;
    }

    // ---- quiescence -------------------------------------------------------

    /// Start of a data structure operation. Returns true iff this thread's
    /// epoch announcement changed (its oldest limbo bag was reclaimed).
    /// Crash-recovery schemes also get the limbo pressure that decides
    /// whether a laggard is neutralized: the fullest current bag, in
    /// blocks.
    bool leave_qstate(int tid) {
        if constexpr (quiescence_based) {
            auto rotate = [&] {
                for_each_bundle(
                    [&](auto& b) { b.rec.rotate_and_reclaim(tid); });
            };
            if constexpr (supports_crash_recovery) {
                return global_.leave_qstate(tid, rotate, [&] {
                    int mx = 0;
                    for_each_bundle([&](auto& b) {
                        const int blocks = b.rec.current_bag_blocks(tid);
                        if (blocks > mx) mx = blocks;
                    });
                    return mx;
                });
            } else {
                return global_.leave_qstate(tid, rotate);
            }
        } else {
            return false;
        }
    }

    /// End of a data structure operation. A scheme without quiescence
    /// tracking releases its per-access protections instead (paper Section
    /// 6: "enterQstate clears all announced HPs").
    void enter_qstate(int tid) {
        if constexpr (quiescence_based) global_.enter_qstate(tid);
        else clear_protections(tid);
    }

    bool is_quiescent(int tid) const {
        if constexpr (quiescence_based) return global_.is_quiescent(tid);
        else return false;
    }

    // ---- record lifecycle --------------------------------------------------

    /// Raw storage for one T (pool first, then allocator). The record is
    /// *uninitialized*: placement-new it before publishing. For era schemes
    /// the storage carries a just-stamped birth era in its hidden header.
    template <class T>
    T* allocate(int tid) {
        auto& b = get<T>();
        if constexpr (bundle<T>::stamped) {
            auto* rec = b.pool.allocate(tid);
            global_.stamp_birth(rec);
            return rec->value_ptr();
        } else {
            return b.pool.allocate(tid);
        }
    }

    /// Convenience: allocate + placement-new.
    template <class T, class... Args>
    T* new_record(int tid, Args&&... args) {
        return ::new (static_cast<void*>(allocate<T>(tid)))
            T(std::forward<Args>(args)...);
    }

    /// Return a record that was never published (e.g. a preallocated node an
    /// operation ended up not inserting).
    template <class T>
    void deallocate(int tid, T* p) {
        if constexpr (bundle<T>::stamped) {
            get<T>().pool.deallocate(tid, bundle<T>::stored_t::from_value(p));
        } else {
            get<T>().pool.deallocate(tid, p);
        }
    }

    /// The record has been removed from the data structure; reclaim it once
    /// no thread can still reach it. Era schemes stamp the retire era here,
    /// closing the record's lifetime interval.
    template <class T>
    void retire(int tid, T* p) {
        if constexpr (bundle<T>::stamped) {
            auto* rec = bundle<T>::stored_t::from_value(p);
            global_.stamp_retire(tid, rec);
            get<T>().rec.retire(tid, rec);
        } else {
            get<T>().rec.retire(tid, p);
        }
    }

    /// Leak sentinel (smr_serve's WILL_FAIL canary; see DESIGN.md Section
    /// 12.4): allocates a record of the first managed type, accounts it as
    /// retired, and abandons the storage -- the exact counter signature of
    /// a retire whose record never reaches a pool. The invariant monitor
    /// must flag a soak that calls this periodically; a monitor that stays
    /// green under this call is not armed. Never call outside leak tests.
    void leak_retired_record(int tid) {
        using T0 = std::tuple_element_t<0, std::tuple<Ts...>>;
        (void)get<T0>().pool.allocate(tid);  // deliberately abandoned
        stats_.add(tid, stat::records_retired);
    }

    // ---- per-access protection (hazard-pointer schemes) ---------------------

    /// Must succeed before any field of `p` is read or `p` is used as a CAS
    /// expected value. `validate` checks that `p` is still safe (e.g. still
    /// linked); it runs after the announcement fence. For epoch schemes this
    /// whole call compiles to `true`: the operation's quiescence bracket
    /// already covers every record it can reach.
    template <class T, class ValidateFn>
    bool protect(int tid, T* p, ValidateFn&& validate) {
        if constexpr (per_access_protection)
            return global_.protect(tid, p, std::forward<ValidateFn>(validate));
        else return true;
    }
    template <class T>
    bool protect(int tid, T* p) {
        return protect(tid, p, [] { return true; });
    }
    template <class T>
    void unprotect(int tid, T* p) {
        if constexpr (per_access_protection) global_.unprotect(tid, p);
    }
    template <class T>
    bool is_protected(int tid, T* p) const {
        if constexpr (per_access_protection)
            return global_.is_protected(tid, p);
        else return true;
    }

    /// Releases every per-access protection this thread holds (hazard
    /// schemes); compiles to nothing for epoch schemes. Data structures call
    /// this when restarting a traversal so abandoned hazard slots do not
    /// accumulate. Routes through the scheme's dedicated hazard-clear path:
    /// it used to piggyback on enter_qstate, which for a scheme that is both
    /// per-access and quiescence-tracking (IBR) also retracted the
    /// quiescence announcement mid-operation.
    void clear_protections(int tid) {
        if constexpr (per_access_protection) global_.clear_hazards(tid);
    }

    // ---- guard accounting (guards.h) -------------------------------------
    //
    // guard_ptr reports acquisition/release of per-access protections here
    // so op_guard / run_guarded can assert (debug builds) that no guard
    // outlives its operation, and tests can observe leaks. Epoch-scheme
    // guards are bare pointers and never call these.

    void guard_acquired(int tid) noexcept { ++*live_guards_[tid]; }
    void guard_released(int tid) noexcept { --*live_guards_[tid]; }
    /// Live guard_ptrs held by `tid` (always 0 for epoch schemes).
    int live_guard_count(int tid) const noexcept {
        return *live_guards_[tid];
    }

    // ---- crash recovery (DEBRA+) ---------------------------------------------
    //
    // Without crash recovery there is no recovery code to consult these
    // (paper Section 6: RProtect and RUnprotectAll do nothing, isRProtected
    // returns false).

    template <class T>
    bool rprotect(int tid, T* p) {
        if constexpr (supports_crash_recovery) return global_.rprotect(tid, p);
        else return true;
    }
    void runprotect_all(int tid) {
        if constexpr (supports_crash_recovery) global_.runprotect_all(tid);
    }
    template <class T>
    bool is_rprotected(int tid, T* p) const {
        if constexpr (supports_crash_recovery)
            return global_.is_rprotected(tid, p);
        else return false;
    }

    /// Runs one data structure operation with neutralization recovery.
    ///
    ///   body(tid)     -> bool done : the Figure-5 body (leave_qstate ...
    ///                    enter_qstate). Returning false retries.
    ///   recovery(tid) -> bool done : runs after a neutralization longjmp,
    ///                    in a quiescent state. Returning false restarts the
    ///                    body.
    ///
    /// For schemes without crash recovery this is a plain retry loop; the
    /// sigsetjmp is compiled out (paper's supportsCrashRecovery check).
    /// Contract: the body must not perform non-reentrant actions (allocation,
    /// bag manipulation, I/O) -- those belong in the quiescent preamble and
    /// postamble around run_op.
    template <class BodyFn, class RecoveryFn>
    void run_op(int tid, BodyFn&& body, RecoveryFn&& recovery) {
        if constexpr (supports_crash_recovery) {
            for (;;) {
                // savemask = 0: saving the signal mask is a sigprocmask
                // syscall per operation. Instead, the (rare) recovery path
                // re-enables the neutralization signal explicitly -- the
                // kernel blocked it for the duration of the handler we
                // longjmped out of.
                if (sigsetjmp(global_.jmp_env(tid), 0)) {
                    global_.prepare_recovery(tid);
                    if (recovery(tid)) return;
                } else {
                    if (body(tid)) return;
                }
            }
        } else {
            while (!body(tid)) {}
        }
    }

    // ---- introspection --------------------------------------------------------

    debug_stats& stats() noexcept { return stats_; }
    const debug_stats& stats() const noexcept { return stats_; }
    typename Scheme::global_state& global() noexcept { return global_; }
    int num_threads() const noexcept { return num_threads_; }

    template <class T>
    long long limbo_size(int tid) const {
        return get<T>().rec.limbo_size(tid);
    }
    template <class T>
    long long total_limbo_size() const {
        long long sum = 0;
        for (int t = 0; t < num_threads_; ++t) sum += limbo_size<T>(t);
        return sum;
    }
    template <class T>
    auto& pool() {
        return get<T>().pool;
    }

    /// Records waiting to be freed, summed over every managed type and
    /// thread (the paper's "objects waiting to be freed" metric).
    long long total_limbo_all_types() {
        long long sum = 0;
        for_each_bundle([&](auto& b) {
            for (int t = 0; t < num_threads_; ++t) sum += b.rec.limbo_size(t);
        });
        return sum;
    }

    /// Total bytes of fresh record storage allocated, summed over managed
    /// types -- the Figure 9 metric. Returns -1 when the configured
    /// Allocator cannot report it (i.e., is not a bump allocator).
    long long total_allocated_bytes() {
        long long sum = -1;
        for_each_bundle([&](auto& b) {
            if constexpr (requires { b.alloc.total_bumped_bytes(); }) {
                if (sum < 0) sum = 0;
                sum += b.alloc.total_bumped_bytes();
            }
        });
        return sum;
    }
    template <class T>
    auto& allocator() {
        return get<T>().alloc;
    }

  private:
    template <class T>
    struct bundle {
        using stored_t = typename rm_detail::stored_type<Scheme, T>::type;
        static constexpr bool stamped =
            rm_detail::stored_type<Scheme, T>::stamped;
        using alloc_t = typename AllocTag::template bind<stored_t>;
        using pool_t =
            typename PoolTag::template bind<stored_t, alloc_t, BLOCK_SIZE>;
        using rec_t =
            typename Scheme::template per_type<stored_t, pool_t, BLOCK_SIZE>;

        bundle(int n, typename Scheme::global_state& g, debug_stats* stats)
            : bpools(n, stats),
              alloc(n, stats),
              pool(n, alloc, bpools, stats),
              rec(n, g, pool, bpools, stats) {}

        // Declaration order doubles as teardown dependency order (reverse):
        // rec drains limbo into pool, pool frees into alloc.
        mem::block_pool_array<stored_t, BLOCK_SIZE> bpools;
        alloc_t alloc;
        pool_t pool;
        rec_t rec;
    };

    template <class T>
    bundle<T>& get() {
        static_assert((std::is_same_v<T, Ts> || ...),
                      "type is not managed by this record_manager");
        return *std::get<std::unique_ptr<bundle<T>>>(bundles_);
    }
    template <class T>
    const bundle<T>& get() const {
        static_assert((std::is_same_v<T, Ts> || ...),
                      "type is not managed by this record_manager");
        return *std::get<std::unique_ptr<bundle<T>>>(bundles_);
    }

    template <class F>
    void for_each_bundle(F&& f) {
        std::apply([&](auto&... b) { (f(*b), ...); }, bundles_);
    }

    /// Thread lifecycle states (satellite of the RAII layer): registered
    /// tids may issue calls; parked tids were deinited and may re-register.
    static constexpr unsigned char LIFE_UNREGISTERED = 0;
    static constexpr unsigned char LIFE_REGISTERED = 1;
    static constexpr unsigned char LIFE_PARKED = 2;

    const int num_threads_;
    debug_stats stats_;
    typename Scheme::global_state global_;
    std::tuple<std::unique_ptr<bundle<Ts>>...> bundles_;
    thread_registry registry_;
    std::array<padded<std::atomic<unsigned char>>, MAX_THREADS> lifecycle_{};
    std::array<padded<int>, MAX_THREADS> live_guards_{};
};

}  // namespace smr
