// Bump-pointer arena and a free-list object pool built on it.
//
// The ingestion hot path creates and destroys two kinds of objects at bucket
// rate: per-bucket scratch (the per-topic reposition runs IndexMaintainer
// scatters per ranked list — all dead at the end of the bucket) and
// per-element window entries (ActiveWindow::Entry — long-lived but churned
// continuously by insert/expiry/GC). Arena serves the first: allocations are
// a pointer bump, and Reset() reclaims everything at once while keeping the
// blocks for the next bucket, so steady state does no heap traffic at all.
// ObjectPool serves the second: slots come from an arena and destroyed
// objects go onto a free list, so an element insert after a GC reuses a
// still-warm slot instead of hitting the allocator.
//
// Neither is thread-safe; each owner (one engine's maintainer, one engine's
// window) confines its arena/pool to the thread advancing that engine. That
// confinement is what lets the sharded service run per-shard maintenance in
// parallel with no shared mutable allocator state.
#ifndef KSIR_COMMON_ARENA_H_
#define KSIR_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace ksir {

/// Monotonic bump allocator. Allocate() never frees; Reset() rewinds every
/// block at once (blocks are retained and reused, so a steady-state caller
/// stops allocating after warmup).
class Arena {
 public:
  /// `block_bytes` is the granularity new blocks are requested at;
  /// allocations larger than a block get a dedicated block of their size.
  explicit Arena(std::size_t block_bytes = 4096)
      : block_bytes_(block_bytes) {
    KSIR_CHECK(block_bytes > 0);
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two no
  /// larger than alignof(std::max_align_t); block bases are new[]-aligned,
  /// so offset alignment within a block suffices).
  void* Allocate(std::size_t bytes, std::size_t align) {
    KSIR_CHECK(align > 0 && (align & (align - 1)) == 0 &&
               align <= alignof(std::max_align_t));
    if (bytes == 0) bytes = 1;
    while (active_ < blocks_.size()) {
      Block& block = blocks_[active_];
      const std::size_t aligned = AlignUp(block.used, align);
      if (aligned + bytes <= block.size) {
        block.used = aligned + bytes;
        return block.data.get() + aligned;
      }
      ++active_;
    }
    // No retained block fits: start a fresh one (oversized requests get an
    // exactly-sized block so they don't poison the reuse pattern).
    Block block;
    block.size = bytes > block_bytes_ ? bytes : block_bytes_;
    block.data = std::make_unique<unsigned char[]>(block.size);
    block.used = bytes;
    blocks_.push_back(std::move(block));
    active_ = blocks_.size() - 1;
    return blocks_.back().data.get();
  }

  /// Uninitialized storage for `n` objects of trivially destructible T (the
  /// arena never runs destructors).
  template <typename T>
  T* AllocateArray(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena storage is reclaimed without running destructors");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Rewinds every block; retained storage is reused by later Allocates.
  void Reset() {
    for (Block& block : blocks_) block.used = 0;
    active_ = 0;
  }

  /// Total bytes of retained block storage (capacity, not live bytes).
  std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Block& block : blocks_) total += block.size;
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<unsigned char[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  static std::size_t AlignUp(std::size_t value, std::size_t align) {
    return (value + align - 1) & ~(align - 1);
  }

  std::size_t block_bytes_;
  std::vector<Block> blocks_;
  std::size_t active_ = 0;
};

/// Fixed-type object pool: slots are arena-backed, destroyed objects feed a
/// free list. Create/Destroy pairs must balance per object; the pool's
/// destructor releases the slot storage but does NOT run destructors of
/// still-live objects — the owner must Destroy everything it created.
template <typename T>
class ObjectPool {
 public:
  explicit ObjectPool(std::size_t block_bytes = 4096)
      : arena_(block_bytes) {}

  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  template <typename... Args>
  T* Create(Args&&... args) {
    Slot* slot = free_;
    if (slot != nullptr) {
      free_ = slot->next;
    } else {
      slot = static_cast<Slot*>(arena_.Allocate(sizeof(Slot), alignof(Slot)));
    }
    T* object;
    try {
      object = ::new (static_cast<void*>(slot->storage))
          T(std::forward<Args>(args)...);
    } catch (...) {
      // Keep the slot and the live count consistent when T's constructor
      // throws: nothing was created.
      slot->next = free_;
      free_ = slot;
      throw;
    }
    ++live_;
    return object;
  }

  void Destroy(T* object) {
    KSIR_CHECK(object != nullptr && live_ > 0);
    object->~T();
    Slot* slot = reinterpret_cast<Slot*>(object);
    slot->next = free_;
    free_ = slot;
    --live_;
  }

  /// Objects currently alive (Created and not yet Destroyed).
  std::size_t live() const { return live_; }

 private:
  union Slot {
    Slot* next;
    alignas(T) unsigned char storage[sizeof(T)];
  };

  Arena arena_;
  Slot* free_ = nullptr;
  std::size_t live_ = 0;
};

}  // namespace ksir

#endif  // KSIR_COMMON_ARENA_H_
