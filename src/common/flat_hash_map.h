// Open-addressing hash map for the ingestion/query hot paths.
//
// std::unordered_map allocates one node per entry and chases a pointer per
// probe; the maintenance loop of Algorithm 1 does several map operations per
// stream edge, so those misses dominate. FlatHashMap stores entries inline in
// a single power-of-two array with linear probing (splitmix64-mixed integer
// keys give well-spread probe starts) and load-factor-bounded growth, so a
// lookup is one hash plus a short contiguous scan.
//
// Erase uses backward-shift deletion (Knuth, TAOCP vol. 3, 6.4 Algorithm R):
// the freed slot is refilled from later in its probe run, so erase leaves no
// deleted-slot marker behind. A sliding window that inserts and erases at
// the same rate therefore keeps its capacity and short probe runs, and
// never rehashes.
//
// Contract differences from std::unordered_map (acceptable to all call
// sites in this repository):
//   * iterators and references to *any* entry are invalidated by insertion
//     (rehash) and by erase (erase moves other entries of the run);
//   * do not erase while iterating; collect the keys first;
//   * iteration order is unspecified and changes across rehashes and erases;
//   * value_type is std::pair<Key, Value> (non-const Key; do not mutate the
//     key through an iterator).
#ifndef KSIR_COMMON_FLAT_HASH_MAP_H_
#define KSIR_COMMON_FLAT_HASH_MAP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace ksir {

/// Mixes integral keys through the splitmix64 finalizer; sequential ids
/// (dense ElementIds) would otherwise cluster into one probe run.
struct FlatHash {
  static std::uint64_t Mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  template <typename K>
  std::size_t operator()(const K& key) const {
    if constexpr (std::is_integral_v<K>) {
      return static_cast<std::size_t>(
          Mix(static_cast<std::uint64_t>(
              static_cast<std::make_unsigned_t<K>>(key))));
    } else {
      return std::hash<K>{}(key);
    }
  }
};

template <typename Key, typename Value, typename Hash = FlatHash>
class FlatHashMap {
  enum class Ctrl : std::uint8_t { kEmpty = 0, kFull = 1 };

 public:
  using value_type = std::pair<Key, Value>;

  template <bool Const>
  class Iterator {
    using MapPtr = std::conditional_t<Const, const FlatHashMap*, FlatHashMap*>;

   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = FlatHashMap::value_type;
    using difference_type = std::ptrdiff_t;
    using reference =
        std::conditional_t<Const, const value_type&, value_type&>;
    using pointer = std::conditional_t<Const, const value_type*, value_type*>;

    Iterator() = default;
    Iterator(MapPtr map, std::size_t index) : map_(map), index_(index) {
      SkipToFull();
    }
    /// const_iterator from iterator.
    template <bool C = Const, typename = std::enable_if_t<C>>
    Iterator(const Iterator<false>& other)  // NOLINT(runtime/explicit)
        : map_(other.map_), index_(other.index_) {}

    reference operator*() const { return map_->slots_[index_]; }
    pointer operator->() const { return &map_->slots_[index_]; }

    Iterator& operator++() {
      ++index_;
      SkipToFull();
      return *this;
    }

    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.index_ == b.index_;
    }
    friend bool operator!=(const Iterator& a, const Iterator& b) {
      return a.index_ != b.index_;
    }

   private:
    friend class FlatHashMap;
    friend class Iterator<true>;
    void SkipToFull() {
      while (map_ != nullptr && index_ < map_->capacity_ &&
             map_->ctrl_[index_] != Ctrl::kFull) {
        ++index_;
      }
    }
    MapPtr map_ = nullptr;
    std::size_t index_ = 0;
  };

  using iterator = Iterator<false>;
  using const_iterator = Iterator<true>;

  FlatHashMap() = default;

  FlatHashMap(const FlatHashMap& other) { CopyFrom(other); }
  FlatHashMap& operator=(const FlatHashMap& other) {
    if (this != &other) {
      Destroy();
      CopyFrom(other);
    }
    return *this;
  }

  FlatHashMap(FlatHashMap&& other) noexcept { MoveFrom(std::move(other)); }
  FlatHashMap& operator=(FlatHashMap&& other) noexcept {
    if (this != &other) {
      Destroy();
      MoveFrom(std::move(other));
    }
    return *this;
  }

  ~FlatHashMap() { Destroy(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slot count (0 before the first insert); read by tests.
  std::size_t capacity() const { return capacity_; }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, capacity_); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, capacity_); }

  void clear() {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (ctrl_[i] == Ctrl::kFull) slots_[i].~value_type();
      ctrl_[i] = Ctrl::kEmpty;
    }
    size_ = 0;
  }

  /// Ensures capacity for `n` entries without rehash.
  void reserve(std::size_t n) {
    const std::size_t needed = NormalizeCapacity(n);
    if (needed > capacity_) Rehash(needed);
  }

  iterator find(const Key& key) {
    const std::size_t idx = FindIndex(key);
    return idx == kNotFound ? end() : IteratorAt(idx);
  }
  const_iterator find(const Key& key) const {
    const std::size_t idx = FindIndex(key);
    return idx == kNotFound ? end() : ConstIteratorAt(idx);
  }

  bool contains(const Key& key) const { return FindIndex(key) != kNotFound; }

  /// Hints the cache to fetch the key's home ctrl byte and slot, so a
  /// batch of lookups can overlap its misses: prefetch every key, then
  /// find them. Reads and writes nothing; a no-op on an empty table.
  void Prefetch(const Key& key) const {
    if (capacity_ == 0) return;
    const std::size_t idx = hash_(key) & (capacity_ - 1);
    __builtin_prefetch(&ctrl_[idx]);
    __builtin_prefetch(&slots_[idx]);
  }

  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const Key& key, Args&&... args) {
    // Probe before growing: a lookup-hit must never rehash (it would
    // invalidate other iterators without inserting anything).
    const std::size_t found = FindIndex(key);
    if (found != kNotFound) return {IteratorAt(found), false};
    GrowIfNeeded();
    const std::size_t idx = ClaimEmptySlot(key);
    new (&slots_[idx]) value_type(
        std::piecewise_construct, std::forward_as_tuple(key),
        std::forward_as_tuple(std::forward<Args>(args)...));
    return {IteratorAt(idx), true};
  }

  template <typename V>
  std::pair<iterator, bool> emplace(const Key& key, V&& value) {
    return try_emplace(key, std::forward<V>(value));
  }

  Value& operator[](const Key& key) { return try_emplace(key).first->second; }

  /// Erases by iterator. Unlike std::unordered_map this does not return the
  /// next iterator; no call site needs it.
  void erase(const_iterator pos) { EraseIndex(pos.index_); }
  void erase(iterator pos) { EraseIndex(pos.index_); }

  std::size_t erase(const Key& key) {
    const std::size_t idx = FindIndex(key);
    if (idx == kNotFound) return 0;
    EraseIndex(idx);
    return 1;
  }

 private:
  static constexpr std::size_t kNotFound = ~std::size_t{0};
  static constexpr std::size_t kMinCapacity = 8;

  static std::size_t NormalizeCapacity(std::size_t n) {
    // Smallest power of two keeping load factor <= 3/4 at n entries.
    std::size_t cap = kMinCapacity;
    while (n * 4 > cap * 3) cap <<= 1;
    return cap;
  }

  iterator IteratorAt(std::size_t idx) {
    iterator it;
    it.map_ = this;
    it.index_ = idx;
    return it;
  }
  const_iterator ConstIteratorAt(std::size_t idx) const {
    const_iterator it;
    it.map_ = this;
    it.index_ = idx;
    return it;
  }

  std::size_t FindIndex(const Key& key) const {
    if (capacity_ == 0) return kNotFound;
    const std::size_t mask = capacity_ - 1;
    std::size_t idx = hash_(key) & mask;
    while (ctrl_[idx] == Ctrl::kFull) {
      if (slots_[idx].first == key) return idx;
      idx = (idx + 1) & mask;
    }
    return kNotFound;
  }

  /// Claims the empty slot ending the probe run of an absent `key`.
  /// Requires capacity_ > 0 with a free slot available.
  std::size_t ClaimEmptySlot(const Key& key) {
    const std::size_t mask = capacity_ - 1;
    std::size_t idx = hash_(key) & mask;
    while (ctrl_[idx] == Ctrl::kFull) idx = (idx + 1) & mask;
    ctrl_[idx] = Ctrl::kFull;
    ++size_;
    return idx;
  }

  /// Backward-shift deletion: empties `idx`, then walks the rest of the run
  /// and moves each entry whose home slot is not cyclically in (hole, j]
  /// into the hole, so every entry stays reachable from its home slot.
  void EraseIndex(std::size_t idx) {
    const std::size_t mask = capacity_ - 1;
    slots_[idx].~value_type();
    ctrl_[idx] = Ctrl::kEmpty;
    --size_;
    std::size_t hole = idx;
    for (std::size_t j = (idx + 1) & mask; ctrl_[j] == Ctrl::kFull;
         j = (j + 1) & mask) {
      const std::size_t home = hash_(slots_[j].first) & mask;
      // Masked distances keep the test right for runs that wrap past 0.
      if (((j - home) & mask) < ((j - hole) & mask)) continue;
      new (&slots_[hole]) value_type(std::move(slots_[j]));
      slots_[j].~value_type();
      ctrl_[hole] = Ctrl::kFull;
      ctrl_[j] = Ctrl::kEmpty;
      hole = j;
    }
  }

  void GrowIfNeeded() {
    if (capacity_ == 0) {
      Rehash(kMinCapacity);
    } else if ((size_ + 1) * 4 > capacity_ * 3) {
      Rehash(capacity_ * 2);
    }
  }

  void Rehash(std::size_t new_capacity) {
    std::vector<Ctrl> old_ctrl = std::move(ctrl_);
    value_type* old_slots = slots_;
    const std::size_t old_capacity = capacity_;

    ctrl_.assign(new_capacity, Ctrl::kEmpty);
    slots_ = static_cast<value_type*>(
        ::operator new(new_capacity * sizeof(value_type)));
    capacity_ = new_capacity;
    size_ = 0;

    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (old_ctrl[i] != Ctrl::kFull) continue;
      new (&slots_[ClaimEmptySlot(old_slots[i].first)])
          value_type(std::move(old_slots[i]));
      old_slots[i].~value_type();
    }
    ::operator delete(old_slots);
  }

  void Destroy() {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (ctrl_[i] == Ctrl::kFull) slots_[i].~value_type();
    }
    ::operator delete(slots_);
    slots_ = nullptr;
    ctrl_.clear();
    capacity_ = 0;
    size_ = 0;
  }

  void CopyFrom(const FlatHashMap& other) {
    if (other.size_ == 0) return;
    reserve(other.size_);
    for (const value_type& kv : other) emplace(kv.first, kv.second);
  }

  void MoveFrom(FlatHashMap&& other) noexcept {
    ctrl_ = std::move(other.ctrl_);
    slots_ = other.slots_;
    capacity_ = other.capacity_;
    size_ = other.size_;
    other.slots_ = nullptr;
    other.ctrl_.clear();
    other.capacity_ = 0;
    other.size_ = 0;
  }

  std::vector<Ctrl> ctrl_;
  value_type* slots_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
  [[no_unique_address]] Hash hash_;
};

/// Set adapter over FlatHashMap: same open-addressing storage, iteration
/// yields keys. Covers the membership sets of the ingestion hot path.
template <typename Key, typename Hash = FlatHash>
class FlatHashSet {
  using Map = FlatHashMap<Key, char, Hash>;

 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Key;
    using difference_type = std::ptrdiff_t;
    using reference = const Key&;
    using pointer = const Key*;

    const_iterator() = default;
    explicit const_iterator(typename Map::const_iterator it) : it_(it) {}

    const Key& operator*() const { return it_->first; }

    const_iterator& operator++() {
      ++it_;
      return *this;
    }

    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.it_ == b.it_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.it_ != b.it_;
    }

   private:
    typename Map::const_iterator it_;
  };

  /// Returns true when the key was newly inserted.
  bool insert(const Key& key) { return map_.try_emplace(key, 0).second; }

  bool contains(const Key& key) const { return map_.contains(key); }
  std::size_t erase(const Key& key) { return map_.erase(key); }

  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }
  void reserve(std::size_t n) { map_.reserve(n); }

  const_iterator begin() const { return const_iterator(map_.begin()); }
  const_iterator end() const { return const_iterator(map_.end()); }

 private:
  Map map_;
};

}  // namespace ksir

#endif  // KSIR_COMMON_FLAT_HASH_MAP_H_
