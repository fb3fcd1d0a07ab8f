// blockbag.h -- an unordered bag of record pointers stored in blocks.
//
// This is the workhorse container of the reclamation schemes: limbo bags
// (records waiting out their grace period) and pool bags (records ready for
// reuse) are both blockbags. The structure is a singly-linked list of blocks
// with the invariant from the paper: the head block always holds fewer than
// B records, and every subsequent block holds exactly B. That invariant
// makes add, remove, and "shed every full block" all O(1) pointer surgery.
//
// Blockbags are strictly single-threaded; cross-thread record movement
// happens by detaching full blocks and pushing them through a
// shared_blockbag (see pool_perthread_shared).
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>

#include "block.h"
#include "block_pool.h"

namespace smr::mem {

template <class T, int B = DEFAULT_BLOCK_SIZE>
class blockbag {
  public:
    using block_t = block<T, B>;
    using chain_t = block_chain<T, B>;

    /// The bag borrows `bpool` for block storage; both must outlive it.
    explicit blockbag(block_pool<T, B>& bpool)
        : bpool_(bpool), head_(bpool.acquire()), blocks_(1) {}

    blockbag(const blockbag&) = delete;
    blockbag& operator=(const blockbag&) = delete;

    ~blockbag() {
        // Record pointers are not owned by the bag; callers drain live
        // records before destruction. Blocks go back to the block pool.
        while (head_ != nullptr) {
            block_t* b = head_;
            head_ = b->next_relaxed();
            bpool_.release(b);
        }
    }

    bool empty() const noexcept { return blocks_ == 1 && head_->empty(); }

    /// Number of records currently in the bag.
    long long size() const noexcept {
        return static_cast<long long>(blocks_ - 1) * B + head_->size;
    }

    /// Number of blocks, counting the (possibly empty) head block.
    int size_in_blocks() const noexcept { return blocks_; }

    /// O(1): appends a record. May pull one block from the block pool.
    void add(T* p) {
        head_->push(p);
        if (head_->full()) {
            block_t* fresh = bpool_.acquire();
            fresh->set_next(head_);
            head_ = fresh;
            ++blocks_;
        }
    }

    /// O(1): removes and returns an arbitrary record, or nullptr when empty.
    T* remove() noexcept {
        if (head_->empty()) {
            if (head_->next_relaxed() == nullptr) return nullptr;
            block_t* old = head_;
            head_ = old->next_relaxed();
            --blocks_;
            bpool_.release(old);
        }
        return head_->pop();
    }

    /// O(1) unhook + O(chain) tail walk: detaches every full block (all
    /// blocks except the head) and returns them as a chain. Used by DEBRA's
    /// rotateAndReclaim to hand an entire epoch's retirees to the pool.
    chain_t take_full_blocks() noexcept { return detach_after(head_, 0); }

    /// Inserts one full block directly after the head. Used by pools
    /// adopting donated blocks.
    void add_full_block(block_t* b) noexcept {
        assert(b->full());
        b->set_next(head_->next_relaxed());
        head_->set_next(b);
        ++blocks_;
    }

    /// Removes one full block (the one after the head), or nullptr if the
    /// bag holds no full block. Used by pools donating to the shared bag.
    block_t* pop_full_block() noexcept {
        block_t* b = head_->next_relaxed();
        if (b == nullptr) return nullptr;
        head_->set_next(b->next_relaxed());
        b->set_next(nullptr);
        --blocks_;
        return b;
    }

    /// The scan-and-free partition (HP/HE/IBR scans, DEBRA+'s rotation
    /// scan): moves every record `keep` accepts to the front of the bag,
    /// then detaches every full block after the boundary -- the block
    /// holding the slot just past the last kept record -- and returns them
    /// as a chain. Every record in the chain was rejected by `keep`; the
    /// head block always stays. Nothing kept sheds every full block;
    /// everything kept sheds nothing. One `keep` call per record.
    template <class Keep>
    chain_t take_unkept(Keep&& keep) {
        // Kept records fill the bag from the front, head block first:
        // slot `slot` of block `to`, the bag's block number `ord`.
        block_t* to = head_;
        int slot = 0;
        int ord = 0;
        bool kept = false;
        for (block_t* b = head_; b != nullptr; b = b->next_relaxed()) {
            for (int i = 0; i < b->size; ++i) {
                if (!keep(b->entries[i])) continue;
                if (slot == to->size) {  // only the head is ever short
                    to = to->next_relaxed();
                    slot = 0;
                    ++ord;
                }
                std::swap(b->entries[i], to->entries[slot++]);
                kept = true;
            }
        }
        // With nothing kept the boundary would be the first non-empty
        // block, sparing it; shed every full block instead.
        if (!kept) return detach_after(head_, 0);
        if (slot == to->size) {  // the slot just past lies in the next block
            to = to->next_relaxed();
            ++ord;
        }
        return to == nullptr ? chain_t{} : detach_after(to, ord);
    }

  private:
    /// Detaches every block after `b`, the bag's block number `ord`, and
    /// returns them as a chain. O(chain) for the tail walk the consumer
    /// needs anyway.
    chain_t detach_after(block_t* b, int ord) noexcept {
        chain_t c;
        c.head = b->next_relaxed();
        if (c.head == nullptr) return c;
        b->set_next(nullptr);
        c.count = blocks_ - (ord + 1);
        blocks_ = ord + 1;
        c.tail = c.head;
        while (c.tail->next_relaxed() != nullptr) c.tail = c.tail->next_relaxed();
        return c;
    }

    block_pool<T, B>& bpool_;
    block_t* head_;
    int blocks_;
};

}  // namespace smr::mem
