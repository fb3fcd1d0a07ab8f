// ellen_bst.h -- lock-free external binary search tree (Ellen, Fatourou,
// Ruppert, van Breugel, PODC 2010), written in the paper's Figure-5 form so
// that every reclamation scheme in this library -- including DEBRA+'s
// signal-based neutralization -- applies to it.
//
// Why this tree is the DEBRA+ showcase (paper Sections 3 and 7):
//   * nodes are *marked* before they are retired, and searches traverse
//     child pointers out of marked -- possibly retired -- nodes. Hazard
//     pointers therefore cannot be applied soundly: an operation can never
//     be sure a node it wants to protect is still in the tree. We reproduce
//     the paper's practical HP workaround ("simply restart any operation
//     that suspects a node is retired"), which costs HP its lock-freedom;
//   * updates publish a *descriptor* (info record) and are completed by
//     helpers, so an operation interrupted by a neutralization signal can
//     always be finished or safely restarted by its own recovery code.
//
// Structure: leaf-oriented. Internal nodes route; leaves carry the set
// members. Two sentinel keys inf1 < inf2 sit above all real keys; the
// initial tree is root(inf2) with children leaf(inf1), leaf(inf2), so every
// search finds a grandparent/parent/leaf triple.
//
// Update protocol (EFRB):
//   * each internal node has an `update` word = (info*, state) where state
//     is CLEAN / IFLAG / DFLAG / MARK;
//   * Insert: flag parent IFLAG(op), then helpInsert: swing the child
//     pointer from the old leaf to a freshly built subtree, commit, unflag;
//   * Delete: flag grandparent DFLAG(op), then helpDelete: mark parent
//     (freezing it forever), helpMarked: swing grandparent's child from the
//     parent to the leaf's sibling, commit, unflag. If the mark loses, the
//     operation aborts and backtracks the flag.
// Both updates run one Figure-5 shape: one attempt loop (update), whose
// body ends in one flag step (flag_step) and whose neutralization recovery
// (recover) serves both update types.
//
// Reclamation protocol (this work):
//   * only the operation's *owner* retires records, in its quiescent
//     postamble (paper Figure 5): the replaced leaf (insert) or the parent
//     + leaf (delete), plus the info records its flag/mark CASes overwrote;
//   * a node's own info record is retired by whichever later operation
//     overwrites the node's update word (or dies with the node's subtree);
//   * descriptor fields that survive in CLEAN words are only ever compared,
//     never dereferenced, so a retired info is safe to free after its grace
//     period. Update words are *version-stamped* (vstated_ptr): every CAS
//     advances a per-node 16-bit version packed into the word's high bits,
//     so comparisons match (pointer, state, version) and a descriptor
//     address recycled through the pool can no longer spuriously satisfy a
//     stale expected value. (DESIGN.md Section 7 records the residual
//     mod-2^16 wraparound window; the word deliberately stays one
//     lock-free machine word so DEBRA+ neutralization can longjmp out of
//     any update-word access.)
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "../util/debug_stats.h"
#include "../util/tagged_ptr.h"
#include "concepts.h"

namespace smr::ds {

/// Update-word states (bits 0..1 of the packed word).
enum bst_state : unsigned {
    BST_CLEAN = 0,
    BST_IFLAG = 1,
    BST_DFLAG = 2,
    BST_MARK = 3,
};

/// Info-record lifecycle, used by neutralization recovery to decide whether
/// a flag CAS it may or may not have executed ended up taking effect.
enum bst_outcome : int {
    BST_PENDING = 0,
    BST_COMMITTED = 1,
    BST_ABORTED = 2,
};

template <class K, class V>
struct bst_info;

/// Tree node. Leaf iff left == nullptr. `inf` lifts the key order: 0 for
/// real keys, 1 and 2 for the sentinels (inf2 > inf1 > every real key).
/// `update` is a version-stamped word (vstated_ptr): (info*, state) plus a
/// monotonically increasing per-node version in the high bits.
template <class K, class V>
struct bst_node {
    K key;
    V value;
    int inf;
    std::atomic<std::uintptr_t> update;
    std::atomic<bst_node*> left;
    std::atomic<bst_node*> right;

    bool is_leaf() const noexcept {
        return left.load(std::memory_order_acquire) == nullptr;
    }
};

/// Operation descriptor. One record type covers insert (type 0) and delete
/// (type 1); helpers read only the fields their type uses.
template <class K, class V>
struct bst_info {
    using node_t = bst_node<K, V>;

    std::atomic<int> state;    // bst_outcome
    int type;                  // 0 = insert, 1 = delete
    node_t* p;                 // flagged parent (insert) / marked parent (delete)
    node_t* l;                 // the leaf the operation targets
    node_t* new_internal;      // insert: replacement subtree root
    node_t* gp;                // delete: flagged grandparent
    std::uintptr_t pupdate;    // delete: expected value for the mark CAS
};

/// Lock-free set/map with insert-if-absent, erase, and wait-free-ish find.
/// `RecordMgr` must manage both `bst_node<K,V>` and `bst_info<K,V>`.
/// Operations take an accessor bound to a registered thread.
template <class K, class V, class RecordMgr>
class ellen_bst {
  public:
    using key_type = K;
    using mapped_type = V;
    using node_t = bst_node<K, V>;
    using info_t = bst_info<K, V>;
    using sp = vstated_ptr<info_t>;
    using accessor_t = typename RecordMgr::accessor_t;
    using node_guard = typename RecordMgr::template guard_t<node_t>;
    using info_guard = typename RecordMgr::template guard_t<info_t>;
    using span_t = typename RecordMgr::span_t;

    explicit ellen_bst(RecordMgr& mgr) : mgr_(mgr) {
        // Single-threaded setup: raw back-end accessor for tid 0.
        accessor_t acc(mgr_, 0);
        node_t* l1 = init_leaf(acc.template new_record<node_t>(), K{}, V{}, 1);
        node_t* l2 = init_leaf(acc.template new_record<node_t>(), K{}, V{}, 2);
        root_ = acc.template new_record<node_t>();
        init_internal(root_, K{}, 2, l1, l2);
    }

    ellen_bst(const ellen_bst&) = delete;
    ellen_bst& operator=(const ellen_bst&) = delete;

    ~ellen_bst() { free_subtree(root_); }

    // ---- queries -----------------------------------------------------------

    /// Returns the value stored for `key`, if present. Never helps, never
    /// writes shared memory (paper Figure 3 search shape).
    ///
    /// Like every operation, the non-quiescent traversal runs inside
    /// run_guarded: under DEBRA+ a neutralization signal may interrupt
    /// *any* non-quiescent code, and the siglongjmp must land in a live
    /// sigsetjmp environment. Recovery simply restarts the read-only body
    /// (for schemes without crash recovery this compiles to a plain loop).
    std::optional<V> find(accessor_t acc, const K& key) {
        std::optional<V> result;
        acc.run_guarded(
            [&] {
                for (;;) {
                    search_result s;
                    if (!search(acc, key, s)) {
                        acc.note(stat::op_restarts);
                        continue;
                    }
                    result = is_key(s.l, key)
                                 ? std::optional<V>(s.l->value)
                                 : std::nullopt;
                    break;
                }
                return true;
            },
            [&] {
                acc.note(stat::op_restarts);
                return false;  // restart the read-only body
            });
        return result;
    }

    bool contains(accessor_t acc, const K& key) {
        return find(acc, key).has_value();
    }

    /// Visits every key in [lo, hi] in ascending order; returns the number
    /// of keys delivered to the visitor (see ds::ordered_set_like).
    ///
    /// Shape: in-order DFS over the leaf-oriented tree, pruned to the
    /// query interval by the internal routing keys. For per-access schemes
    /// (HP/HE/IBR) one guard_span holds the DFS stack plus the node being
    /// expanded: a node is released once its children are admitted (a
    /// leaf once it is visited or skipped), the hand-over-hand step of
    /// search() applied to a stack. The window is O(tree height), not one
    /// protection per scanned node, so a scan fits HP's base slot chunk
    /// and keeps its 2nK + slack limbo bound. Epoch schemes' span is an
    /// empty token; IBR's interval already covers it.
    ///
    /// Consistency: each visited key was a member at some instant during
    /// the scan; keys are strictly ascending (leaf intervals are fixed by
    /// the routing keys, which never change), hence duplicate-free, even
    /// across restarts -- a restarted DFS prunes at the resume frontier.
    ///
    /// Like every BST operation the non-quiescent traversal runs under
    /// run_guarded, so DEBRA+ neutralization is supported: scan-frontier
    /// state the recovery path re-reads lives in lock-free atomics, and
    /// under neutralizing schemes the visitor is subject to the run_guarded
    /// body contract (trivially destructible locals, reentrant effects --
    /// e.g. accumulate through lock-free atomics or memory keyed by the
    /// visited key). Delivery is at-most-once per key; under neutralizing
    /// schemes a longjmp can land between the frontier advance and the
    /// visitor (key skipped, not counted) so the returned count is a lower
    /// bound of deliveries there, exact under every other scheme.
    template <class Visitor>
        requires range_visitor<Visitor, K, V>
    long long range_query(accessor_t acc, const K& lo, const K& hi,
                          Visitor&& vis) {
        // Quiescent preamble: the DFS stack is preallocated here because
        // the body may not allocate under neutralizing schemes; if a deep
        // tree outgrows it, the body bails out and we regrow quiescently.
        scan_ctx ctx(lo);
        ctx.stack.reserve(64);

        for (;;) {
            ctx.state.store(scan_state::RESTART, std::memory_order_relaxed);
            acc.run_guarded(
                [&] { return range_body(acc, hi, ctx, vis); },
                [&] {
                    // Neutralized mid-scan: the resume frontier already
                    // reflects every key delivered; just restart the body.
                    return false;
                });
            switch (ctx.state.load(std::memory_order_relaxed)) {
                case scan_state::DONE:
                    return ctx.visited.load(std::memory_order_relaxed);
                case scan_state::GROW:
                    ctx.stack.reserve(ctx.stack.capacity() * 2);
                    break;
                case scan_state::RESTART:
                    break;
            }
            acc.note(stat::op_restarts);
        }
    }

    // ---- updates -------------------------------------------------------------

    /// Inserts (key, value) if absent; returns false when the key is present.
    bool insert(accessor_t acc, const K& key, const V& value) {
        // -- quiescent preamble: allocation is non-reentrant (Figure 5) --
        attempt_ctx ctx;
        ctx.new_leaf =
            init_leaf(acc.template new_record<node_t>(), key, value, 0);
        ctx.new_sibling = acc.template new_record<node_t>();
        ctx.new_internal = acc.template new_record<node_t>();
        return update(acc, ctx, [&] { insert_body(acc, key, ctx); })
            .has_value();
    }

    /// Removes `key`; returns its value if it was present.
    std::optional<V> erase(accessor_t acc, const K& key) {
        attempt_ctx ctx;
        return update(acc, ctx, [&] { erase_body(acc, key, ctx); });
    }

    // ---- inspection (single-threaded; tests and examples) ---------------------

    /// Number of real keys, by exhaustive traversal.
    long long size_slow() const { return count_leaves(root_); }

    /// Checks the BST ordering + leaf-orientation invariants.
    bool validate_structure() const {
        return validate_rec(root_, nullptr, false, nullptr, false);
    }

    node_t* root() noexcept { return root_; }

  private:
    // ---- attempt bookkeeping -------------------------------------------------

    enum class attempt { SUCCESS, ALREADY_DONE, RETRY, RETRY_FRESH_INFO };

    /// Everything one operation attempt shares between its body, its
    /// recovery code, and its quiescent postamble. Lives in the owner's
    /// stack frame; never visible to other threads.
    ///
    /// Fields the *body* writes and the *recovery code* (which runs after a
    /// siglongjmp out of an arbitrary instruction) reads are lock-free
    /// atomics: a neutralization signal can interrupt the body anywhere,
    /// and plain stores pending in registers are rolled back by the
    /// longjmp. Lock-free atomic stores are emitted at their program point
    /// and are async-signal-visible on the same thread ([support.signal]),
    /// so recovery always sees them in program order. Fields written only
    /// in the quiescent preamble / outer loop (where no longjmp can occur)
    /// stay plain.
    struct attempt_ctx {
        // preallocated records (insert); written outside run_op only
        node_t* new_leaf = nullptr;
        node_t* new_sibling = nullptr;
        node_t* new_internal = nullptr;
        info_t* info = nullptr;
        // discovered by the body, consumed by recovery / postamble
        std::atomic<node_t*> flag_target{nullptr};  // p (insert) / gp (delete)
        std::atomic<node_t*> old_leaf{nullptr};  // leaf this op removes
        std::atomic<node_t*> removed_parent{nullptr};  // delete only
        std::atomic<info_t*> overwritten{nullptr};   // displaced by flag CAS
        std::atomic<info_t*> overwritten_mark{nullptr};  // displaced by mark
        attempt outcome = attempt::RETRY;  // always rewritten by recovery

        static_assert(std::atomic<node_t*>::is_always_lock_free,
                      "neutralization recovery requires lock-free atomics");
    };

    // ---- key order -------------------------------------------------------------

    /// true iff `key` routes left of `n` ((inf, key) lexicographic order).
    static bool key_less(const K& key, const node_t* n) noexcept {
        return n->inf != 0 || key < n->key;
    }
    static bool is_key(const node_t* leaf, const K& key) noexcept {
        return leaf->inf == 0 && leaf->key == key;
    }

    // ---- node construction -------------------------------------------------------

    static node_t* init_leaf(node_t* n, const K& key, const V& value,
                             int inf) noexcept {
        n->key = key;
        n->value = value;
        n->inf = inf;
        n->update.store(sp::pack(nullptr, BST_CLEAN, 0),
                        std::memory_order_relaxed);
        n->left.store(nullptr, std::memory_order_relaxed);
        n->right.store(nullptr, std::memory_order_relaxed);
        return n;
    }

    static void init_internal(node_t* n, const K& key, int inf, node_t* l,
                              node_t* r) noexcept {
        n->key = key;
        n->value = V{};
        n->inf = inf;
        n->update.store(sp::pack(nullptr, BST_CLEAN, 0),
                        std::memory_order_relaxed);
        n->left.store(l, std::memory_order_relaxed);
        n->right.store(r, std::memory_order_release);
    }

    // ---- search -----------------------------------------------------------------

    /// gp/p/l plus the guards keeping them safe for per-access schemes
    /// (empty and free for epoch schemes). Guards die with the result.
    struct search_result {
        node_t* gp = nullptr;
        node_t* p = nullptr;
        node_t* l = nullptr;
        std::uintptr_t gpupdate = 0;
        std::uintptr_t pupdate = 0;
        node_guard gp_g;
        node_guard p_g;
        node_guard l_g;
    };

    /// The validation of every guarded child step (search; range_body
    /// spells it out per child): `child`, read from `link` of `parent`, is
    /// safe to protect iff the parent is still unmarked (hence unretired,
    /// hence in the tree) and still links to it. For epoch schemes
    /// protect() never calls it.
    static bool links_to(const node_t* parent,
                         const std::atomic<node_t*>& link,
                         const node_t* child) noexcept {
        const std::uintptr_t u =
            parent->update.load(std::memory_order_seq_cst);
        return sp::state(u) != BST_MARK &&
               link.load(std::memory_order_seq_cst) == child;
    }

    /// EFRB search. Returns false when a hazard protection failed and the
    /// caller must restart (epoch schemes always return true). On success,
    /// gp/p/l are guarded by the result.
    bool search(accessor_t acc, const K& key, search_result& s) {
        s.gp = nullptr;
        s.p = nullptr;
        s.gpupdate = sp::pack(nullptr, BST_CLEAN, 0);
        s.pupdate = sp::pack(nullptr, BST_CLEAN, 0);
        node_t* l = root_;
        // The root is never retired; guard unconditionally.
        node_guard l_g = acc.protect(l);
        while (!l->is_leaf()) {
            s.gp = s.p;
            s.gp_g = std::move(s.p_g);  // releases the old gp's guard
            s.p = l;
            s.p_g = std::move(l_g);
            s.gpupdate = s.pupdate;
            s.pupdate = s.p->update.load(std::memory_order_acquire);
            const std::atomic<node_t*>& link =
                key_less(key, l) ? l->left : l->right;
            node_t* child = link.load(std::memory_order_acquire);
            l_g = acc.protect(child, [&] { return links_to(l, link, child); });
            if (!l_g) return false;  // suspect: restart the whole operation
            l = child;
        }
        s.l = l;
        s.l_g = std::move(l_g);
        return true;
    }

    // ---- helping (EFRB helpInsert / helpDelete / helpMarked) -----------------------

    /// Swings whichever child pointer of `parent` equals `old` to `next`.
    static void cas_child(node_t* parent, node_t* old, node_t* next) noexcept {
        node_t* expected = old;
        if (parent->left.load(std::memory_order_acquire) == old) {
            parent->left.compare_exchange_strong(expected, next,
                                                 std::memory_order_seq_cst);
        } else if (parent->right.load(std::memory_order_acquire) == old) {
            expected = old;
            parent->right.compare_exchange_strong(expected, next,
                                                  std::memory_order_seq_cst);
        }
    }

    /// Unflags `n` back to CLEAN(op) iff it still carries op's flag in
    /// state `flag_state`. Reads the current word first: the version lives
    /// in the word, so the expected value cannot be rebuilt from scratch.
    /// All helpers of one operation observe the *same* flagged word (its
    /// version was fixed by the one flag CAS), compute the same CLEAN
    /// successor, and at most one CAS wins -- idempotence is preserved.
    ///
    /// Safety note: because the expected value comes from a fresh load,
    /// the version stamp does NOT protect this CAS against a recycled
    /// same-address descriptor -- the load would observe the stranger's
    /// word, version included. What makes that unreachable is that every
    /// caller holds a protection on `op` (help() guards it, owners pin
    /// their own descriptor), so op cannot have been reclaimed and
    /// recycled while we are here. The version stamp closes the ABA at
    /// the *flag and mark CASes*, whose expected words are captured at
    /// search time, before any protection on the displaced descriptor
    /// exists. Do not add an unguarded helping path.
    static void unflag(node_t* n, info_t* op, unsigned flag_state) noexcept {
        std::uintptr_t cur = n->update.load(std::memory_order_seq_cst);
        if (sp::ptr(cur) == op && sp::state(cur) == flag_state) {
            n->update.compare_exchange_strong(cur,
                                              sp::bump(cur, op, BST_CLEAN),
                                              std::memory_order_seq_cst);
        }
    }

    /// Completes a published insert. Idempotent and reentrant: any thread,
    /// any number of times, including from neutralization recovery.
    void help_insert(info_t* op) noexcept {
        cas_child(op->p, op->l, op->new_internal);
        op->state.store(BST_COMMITTED, std::memory_order_seq_cst);
        unflag(op->p, op, BST_IFLAG);
    }

    /// Completes a delete whose parent is already marked. Idempotent.
    void help_marked(info_t* op) noexcept {
        // p is frozen (marked), so its children cannot change under us.
        node_t* l = op->l;
        node_t* other =
            op->p->right.load(std::memory_order_acquire) == l
                ? op->p->left.load(std::memory_order_acquire)
                : op->p->right.load(std::memory_order_acquire);
        cas_child(op->gp, op->p, other);
        op->state.store(BST_COMMITTED, std::memory_order_seq_cst);
        unflag(op->gp, op, BST_DFLAG);
    }

    /// Attempts to complete a published delete: marks the parent, then
    /// finishes via help_marked; on mark failure, aborts and backtracks.
    /// Returns true iff the delete committed.
    bool help_delete(info_t* op) noexcept {
        // Every helper derives the same desired MARK word from the fixed
        // op->pupdate snapshot, so the frozen-word test below is stable no
        // matter whose CAS landed.
        std::uintptr_t expected = op->pupdate;
        const std::uintptr_t marked = sp::bump(op->pupdate, op, BST_MARK);
        op->p->update.compare_exchange_strong(expected, marked,
                                              std::memory_order_seq_cst);
        // A marked word is frozen forever, so this test is stable across
        // helpers; the version inside `marked` pins it to *this* op.
        const std::uintptr_t cur =
            op->p->update.load(std::memory_order_seq_cst);
        if (cur == marked) {
            help_marked(op);
            return true;
        }
        // Mark lost: no helper can ever mark (the expected value is gone).
        op->state.store(BST_ABORTED, std::memory_order_seq_cst);
        unflag(op->gp, op, BST_DFLAG);
        return false;
    }

    /// The owner's completion of its own published update, from its flag
    /// step or its recovery: true iff the update committed (an insert
    /// always does; a delete aborts when its mark loses).
    bool complete(info_t* op) noexcept {
        if (op->type == 0) {
            help_insert(op);
            return true;
        }
        return help_delete(op);
    }

    /// Helps whatever operation the update word `u` (read from node `n`)
    /// describes. For hazard-pointer schemes, the info record and the
    /// out-of-band nodes it references are guarded first, anchored to the
    /// still-flagged word; a frozen MARK word gives no such anchor, so HP
    /// callers skip it and restart. Epoch schemes always help.
    void help(accessor_t acc, node_t* n, std::uintptr_t u) {
        const unsigned st = sp::state(u);
        info_t* op = sp::ptr(u);
        if (st == BST_CLEAN) return;
        info_guard op_g;
        node_guard p_g;
        if constexpr (RecordMgr::per_access_protection) {
            if (st == BST_MARK) return;  // frozen word: cannot anchor
            // Anchor: while n->update still equals u, the operation is
            // pending, so nothing it references has been retired by its
            // owner yet.
            auto anchored = [&] {
                return n->update.load(std::memory_order_seq_cst) == u;
            };
            op_g = acc.protect(op, anchored);
            if (!op_g) return;
            if (st == BST_DFLAG) {
                p_g = acc.protect(op->p, anchored);
                if (!p_g) return;
            }
        }
        switch (st) {
            case BST_IFLAG: help_insert(op); break;
            case BST_DFLAG: help_delete(op); break;
            default: help_marked(op); break;  // MARK: epoch schemes only
        }
    }

    // ---- the update protocol (paper Figure 5) -------------------------------

    /// The attempt loop of both updates. `body` makes one attempt under
    /// run_guarded and ends in flag_step unless it decided earlier; after
    /// a neutralization, recover() decides the interrupted attempt. The
    /// outcome switch is the quiescent postamble: it retires what a
    /// successful update removed, frees what a no-op never published, and
    /// replaces a descriptor that an aborted delete left in a CLEAN word.
    /// Returns the old leaf's value on success (for insert, the leaf its
    /// new subtree copied) and nullopt when there was nothing to do.
    template <class Body>
    std::optional<V> update(accessor_t acc, attempt_ctx& ctx, Body&& body) {
        ctx.info = acc.template new_record<info_t>();
        for (;;) {
            ctx.outcome = attempt::RETRY;
            acc.run_guarded(
                [&] {
                    body();
                    return true;
                },
                [&] {
                    recover(acc, ctx);
                    return true;
                });

            switch (ctx.outcome) {
                case attempt::SUCCESS: {
                    node_t* leaf = ctx.old_leaf.load(std::memory_order_relaxed);
                    node_t* parent =
                        ctx.removed_parent.load(std::memory_order_relaxed);
                    const V value = leaf->value;  // before retiring
                    // Unlinked by the child CAS of help_insert or
                    // help_marked; SUCCESS is only reported after it took.
                    // smr-lint: retire-ok (unlinked by that child CAS)
                    acc.retire(leaf);
                    // smr-lint: retire-ok (unlinked by that child CAS)
                    if (parent != nullptr) acc.retire(parent);
                    retire_info(acc, ctx.overwritten.load(
                                         std::memory_order_relaxed));
                    retire_info(acc, ctx.overwritten_mark.load(
                                         std::memory_order_relaxed));
                    return value;
                }
                case attempt::ALREADY_DONE:
                    // None of the records still held was ever published.
                    for (node_t* n :
                         {ctx.new_leaf, ctx.new_sibling, ctx.new_internal}) {
                        if (n != nullptr) acc.deallocate(n);
                    }
                    acc.deallocate(ctx.info);
                    return std::nullopt;
                case attempt::RETRY:
                    // The flag never landed: the records are reusable.
                    break;
                case attempt::RETRY_FRESH_INFO:
                    // Aborted delete: our info is pinned in gp's CLEAN word.
                    // The dflag still overwrote gp's previous info, which is
                    // ours to retire.
                    retire_info(acc, ctx.overwritten.load(
                                         std::memory_order_relaxed));
                    ctx.overwritten.store(nullptr, std::memory_order_relaxed);
                    ctx.info = acc.template new_record<info_t>();
                    break;
            }
            acc.note(stat::op_restarts);
        }
    }

    /// The flag step both bodies end in, once ctx.info describes the
    /// update. RProtects `target` (p for insert, gp for delete) and `a`,
    /// `b`, the other records the help procedure may access or
    /// CAS-expect, then the descriptor last (paper Figure 5 ordering);
    /// pins the descriptor; CASes `target` from `seen` to FLAG(op). Then
    /// completes the update, or helps whichever operation won the CAS and
    /// leaves the outcome at RETRY.
    void flag_step(accessor_t acc, attempt_ctx& ctx, node_t* target,
                   std::uintptr_t seen, node_t* a, node_t* b) {
        info_t* op = ctx.info;
        ctx.flag_target.store(target, std::memory_order_relaxed);
        ctx.old_leaf.store(op->l, std::memory_order_relaxed);
        ctx.overwritten.store(sp::ptr(seen), std::memory_order_relaxed);
        acc.rprotect(target);
        acc.rprotect(a);
        acc.rprotect(b);
        acc.rprotect(op);
        // Pin our own descriptor for hazard schemes: once published it can
        // be helped to completion, its CLEAN word overwritten, and the
        // record retired+freed by another thread's postamble while we are
        // still dereferencing it inside complete(). Epoch schemes compile
        // this away. The guard dies when the body returns.
        info_guard op_pin = acc.protect(op);

        const unsigned flag = op->type == 0 ? BST_IFLAG : BST_DFLAG;
        std::uintptr_t expected = seen;
        if (target->update.compare_exchange_strong(
                expected, sp::bump(seen, op, flag),
                std::memory_order_seq_cst)) {
            ctx.outcome = complete(op) ? attempt::SUCCESS
                                       : attempt::RETRY_FRESH_INFO;
        } else {
            help(acc, target, expected);
        }
    }

    /// Recovery of both updates (runs quiescent, after a neutralization
    /// longjmp; the wrapper runs RUnprotectAll afterwards). Decides whether
    /// the interrupted attempt's flag CAS landed, and if so drives the
    /// update to its end (paper Figure 5).
    void recover(accessor_t acc, attempt_ctx& ctx) {
        info_t* op = ctx.info;
        ctx.outcome = attempt::RETRY;
        // Not announced: the flag CAS never ran and op is still private.
        if (!acc.is_rprotected(op)) return;
        // The target's word is read *before* op->state. A landed flag
        // leaves the word only through an unflag, which leaves CLEAN(op)
        // -- still naming op -- and every unflag comes after the final
        // state store. So a word that no longer names op means either the
        // flag never landed (op is PENDING and private) or op's state was
        // final before this load. Reading the state first would be unsound:
        // it can read PENDING, then a helper commits and unflags and
        // another update re-flags the target before the word is read, and
        // the owner would retry with records that are already in the tree.
        node_t* target = ctx.flag_target.load(std::memory_order_relaxed);
        const std::uintptr_t u =
            target->update.load(std::memory_order_seq_cst);
        if (sp::ptr(u) == op) {
            ctx.outcome = complete(op) ? attempt::SUCCESS
                                       : attempt::RETRY_FRESH_INFO;
            return;
        }
        switch (op->state.load(std::memory_order_seq_cst)) {
            case BST_COMMITTED: ctx.outcome = attempt::SUCCESS; break;
            case BST_ABORTED: ctx.outcome = attempt::RETRY_FRESH_INFO; break;
            default: break;  // PENDING: the flag never landed
        }
    }

    /// One insert attempt (Figure 5 body, run under run_guarded: the
    /// quiescence bracket and RUnprotectAll come from the wrapper; guards
    /// acquired here die before the body returns).
    void insert_body(accessor_t acc, const K& key, attempt_ctx& ctx) {
        search_result s;
        if (!search(acc, key, s)) return;
        if (is_key(s.l, key)) {
            ctx.outcome = attempt::ALREADY_DONE;
            return;
        }
        if (sp::state(s.pupdate) != BST_CLEAN) {
            help(acc, s.p, s.pupdate);
            return;
        }

        // Build the replacement subtree: new_internal routes between the
        // old leaf (copied into new_sibling) and the new leaf, and carries
        // the larger key of the two.
        node_t* l = s.l;
        init_leaf(ctx.new_sibling, l->key, l->value, l->inf);
        if (key_less(key, l)) {
            init_internal(ctx.new_internal, l->key, l->inf, ctx.new_leaf,
                          ctx.new_sibling);
        } else {
            init_internal(ctx.new_internal, key, 0, ctx.new_sibling,
                          ctx.new_leaf);
        }

        info_t* op = ctx.info;
        op->state.store(BST_PENDING, std::memory_order_relaxed);
        op->type = 0;
        op->p = s.p;
        op->l = l;
        op->new_internal = ctx.new_internal;
        op->gp = nullptr;
        op->pupdate = 0;
        flag_step(acc, ctx, s.p, s.pupdate, l, ctx.new_internal);
    }

    /// One erase attempt (same shape as insert_body).
    void erase_body(accessor_t acc, const K& key, attempt_ctx& ctx) {
        search_result s;
        if (!search(acc, key, s)) return;
        if (!is_key(s.l, key)) {
            ctx.outcome = attempt::ALREADY_DONE;
            return;
        }
        if (sp::state(s.gpupdate) != BST_CLEAN) {
            help(acc, s.gp, s.gpupdate);
            return;
        }
        if (sp::state(s.pupdate) != BST_CLEAN) {
            help(acc, s.p, s.pupdate);
            return;
        }

        info_t* op = ctx.info;
        op->state.store(BST_PENDING, std::memory_order_relaxed);
        op->type = 1;
        op->gp = s.gp;
        op->p = s.p;
        op->l = s.l;
        op->pupdate = s.pupdate;
        op->new_internal = nullptr;
        ctx.removed_parent.store(s.p, std::memory_order_relaxed);
        ctx.overwritten_mark.store(sp::ptr(s.pupdate),
                                   std::memory_order_relaxed);
        flag_step(acc, ctx, s.gp, s.gpupdate, s.p, s.l);
    }

    // ---- range scan ------------------------------------------------------------------

    enum class scan_state : int { DONE, GROW, RESTART };

    /// Everything one range scan shares between its body, the recovery
    /// path, and the outer retry loop. As with attempt_ctx, fields the
    /// body writes and a post-longjmp path reads are lock-free atomics;
    /// the DFS stack itself is cleared at the top of every body attempt,
    /// so its (trivially destructible) contents never survive a longjmp.
    struct scan_ctx {
        explicit scan_ctx(const K& lo) { resume.store(lo, std::memory_order_relaxed); }

        std::vector<node_t*> stack;  // capacity managed quiescently only
        std::atomic<long long> visited{0};
        std::atomic<K> resume;         // last delivered key (or the lower bound)
        std::atomic<bool> exclusive{false};  // resume itself already delivered
        std::atomic<scan_state> state{scan_state::RESTART};

        static_assert(!RecordMgr::supports_crash_recovery ||
                          (std::atomic<K>::is_always_lock_free &&
                           std::atomic<long long>::is_always_lock_free),
                      "neutralization recovery requires lock-free scan state");
    };

    /// One in-order DFS attempt (runs under run_guarded). The guard_span
    /// holds exactly the DFS stack plus the node being expanded: every
    /// admitted node is protected and released exactly once, and the
    /// RESTART, GROW and early-exit paths release the rest when the span
    /// dies with the body. Always returns true; the outcome is in
    /// ctx.state (the outer loop handles restarts so stack growth can
    /// happen quiescently).
    template <class Visitor>
    bool range_body(accessor_t acc, const K& hi, scan_ctx& ctx,
                    Visitor& vis) {
        ctx.stack.clear();
        span_t span = acc.make_span();
        K frontier = ctx.resume.load(std::memory_order_relaxed);
        bool frontier_excl = ctx.exclusive.load(std::memory_order_relaxed);

        // The root is never retired; admit it without validation.
        if (!span.protect(root_)) {
            ctx.state.store(scan_state::RESTART, std::memory_order_relaxed);
            return true;
        }
        ctx.stack.push_back(root_);
        while (!ctx.stack.empty()) {
            node_t* n = ctx.stack.back();
            ctx.stack.pop_back();
            node_t* l = n->left.load(std::memory_order_acquire);
            if (l == nullptr) {  // leaf
                const bool eligible =
                    n->inf == 0 && !(hi < n->key) &&
                    (frontier_excl ? frontier < n->key
                                   : !(n->key < frontier));
                if (eligible) {
                    // Frontier first (a neutralization longjmp inside the
                    // visitor must not re-deliver the key: at-most-once),
                    // count after the visitor returns (a longjmp before
                    // the visitor must not count an undelivered key) --
                    // under neutralizing schemes the returned count is
                    // therefore a lower bound of actual deliveries, and
                    // exact everywhere else.
                    frontier = n->key;
                    frontier_excl = true;
                    ctx.resume.store(frontier, std::memory_order_relaxed);
                    ctx.exclusive.store(true, std::memory_order_relaxed);
                    const bool keep_going =
                        visit_adapter(vis, n->key, n->value);
                    ctx.visited.store(
                        ctx.visited.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
                    if (!keep_going) {
                        ctx.state.store(scan_state::DONE,
                                        std::memory_order_relaxed);
                        return true;  // early exit: span dies with the body
                    }
                }
                span.release(n);  // visited or skipped: done with the leaf
                continue;
            }
            if (ctx.stack.size() + 2 > ctx.stack.capacity()) {
                // Preallocated stack exhausted; regrow outside the body
                // (allocation is non-reentrant under neutralization).
                ctx.state.store(scan_state::GROW, std::memory_order_relaxed);
                return true;
            }
            // Internal: prune by the routing key, then admit the children
            // we descend into, right first so the left subtree pops first
            // (in-order, hence ascending keys). The left subtree holds the
            // keys routed below n (descend while the frontier sits below
            // n's routing key); right subtrees of sentinel internals hold
            // only sentinel leaves -- real keys always route left past a
            // sentinel -- so they are skipped. Each child has its own
            // block with links_to's predicate spelled out: on
            // read_scan_large this form measured 6% lower hp.p99_rel and
            // 9% lower debra_plus.p99_rel than one shared admit lambda.
            const bool go_left = key_less(frontier, n);
            const bool go_right = n->inf == 0 && !(hi < n->key);
            if (go_right) {
                node_t* r = n->right.load(std::memory_order_acquire);
                if (!span.protect(r, [&] {
                        const std::uintptr_t u =
                            n->update.load(std::memory_order_seq_cst);
                        return sp::state(u) != BST_MARK &&
                               n->right.load(std::memory_order_seq_cst) == r;
                    })) {
                    ctx.state.store(scan_state::RESTART,
                                    std::memory_order_relaxed);
                    return true;
                }
                ctx.stack.push_back(r);
            }
            if (go_left) {
                node_t* lc = n->left.load(std::memory_order_acquire);
                if (!span.protect(lc, [&] {
                        const std::uintptr_t u =
                            n->update.load(std::memory_order_seq_cst);
                        return sp::state(u) != BST_MARK &&
                               n->left.load(std::memory_order_seq_cst) == lc;
                    })) {
                    ctx.state.store(scan_state::RESTART,
                                    std::memory_order_relaxed);
                    return true;
                }
                ctx.stack.push_back(lc);
            }
            // Hand-over-hand, as in search(): the children now hold their
            // own protections, and the validations have read n for the
            // last time.
            span.release(n);
        }
        ctx.state.store(scan_state::DONE, std::memory_order_relaxed);
        return true;
    }

    // ---- shared tails -----------------------------------------------------------------

    void retire_info(accessor_t acc, info_t* op) {
        // An info record is superseded, not unlinked: callers pass the
        // CLEAN-state predecessor their flag/mark CAS overwrote in the
        // update word, so no later traversal can reach it.
        // smr-lint: retire-ok (superseded via the caller's update-word CAS)
        if (op != nullptr) acc.retire(op);
    }

    // ---- single-threaded helpers ------------------------------------------------------

    long long count_leaves(const node_t* n) const {
        if (n == nullptr) return 0;
        if (n->left.load(std::memory_order_relaxed) == nullptr)
            return n->inf == 0 ? 1 : 0;
        return count_leaves(n->left.load(std::memory_order_relaxed)) +
               count_leaves(n->right.load(std::memory_order_relaxed));
    }

    bool validate_rec(const node_t* n, const K* lo, bool lo_set, const K* hi,
                      bool hi_set) const {
        if (n == nullptr) return false;
        const node_t* l = n->left.load(std::memory_order_relaxed);
        const node_t* r = n->right.load(std::memory_order_relaxed);
        if ((l == nullptr) != (r == nullptr)) return false;  // leaf-oriented
        if (n->inf == 0) {
            if (lo_set && !(*lo <= n->key)) return false;
            if (hi_set && !(n->key < *hi)) return false;
        }
        if (l == nullptr) return true;
        // Children routed by (inf, key): left subtree strictly below n.
        if (n->inf == 0) {
            return validate_rec(l, lo, lo_set, &n->key, true) &&
                   validate_rec(r, &n->key, true, hi, hi_set);
        }
        // Sentinel internals: no finite bound from this node.
        return validate_rec(l, lo, lo_set, hi, hi_set) &&
               validate_rec(r, nullptr, false, nullptr, false);
    }

    void free_subtree(node_t* n) {
        if (n == nullptr) return;
        free_subtree(n->left.load(std::memory_order_relaxed));
        free_subtree(n->right.load(std::memory_order_relaxed));
        // A completed operation leaves its info record referenced by the
        // CLEAN word of exactly one live node until a later operation
        // overwrites (and retires) it; reclaim the survivors here.
        info_t* op = sp::ptr(n->update.load(std::memory_order_relaxed));
        if (op != nullptr) mgr_.template deallocate<info_t>(0, op);
        mgr_.template deallocate<node_t>(0, n);
    }

    RecordMgr& mgr_;
    node_t* root_;
};

}  // namespace smr::ds
