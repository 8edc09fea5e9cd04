#include "lsm/cache.h"

#include <cassert>
#include <cstring>
#include <mutex>
#include <string_view>
#include <unordered_map>

namespace shield {

namespace {

// An entry is a variable length heap-allocated structure. Entries are
// kept in circular doubly linked lists ordered by access time, one
// list per eviction priority.
struct LRUHandle {
  void* value;
  void (*deleter)(const Slice&, void* value);
  LRUHandle* next;
  LRUHandle* prev;
  size_t charge;  // caller charge + per-entry metadata overhead
  size_t key_length;
  bool in_cache;     // whether the cache has a reference on the entry
  Cache::Priority priority;
  uint32_t refs;     // references, including the cache's own if in_cache
  char key_data[1];  // beginning of key

  Slice key() const { return Slice(key_data, key_length); }
  // The hash table's key: a view of key_data, valid while the entry
  // is in the table, so neither lookups nor inserts copy the key.
  std::string_view key_view() const {
    return std::string_view(key_data, key_length);
  }
};

using HandleTable = std::unordered_map<std::string_view, LRUHandle*>;

// Memory the cache itself spends to hold one entry: the handle
// allocation (struct + inline key) plus the hash table's node for it
// (key view, handle pointer, next pointer, cached hash) and about one
// bucket slot. The key itself is stored once, in the handle.
size_t MetaCharge(size_t key_length) {
  size_t meta = sizeof(LRUHandle) - 1 + key_length;  // handle malloc
  meta += sizeof(HandleTable::value_type) + 2 * sizeof(void*);  // node
  meta += sizeof(void*);                                        // bucket
  return meta;
}

class LRUCacheShard {
 public:
  LRUCacheShard() {
    // Empty circular linked lists.
    lru_low_.next = &lru_low_;
    lru_low_.prev = &lru_low_;
    lru_high_.next = &lru_high_;
    lru_high_.prev = &lru_high_;
    in_use_.next = &in_use_;
    in_use_.prev = &in_use_;
  }

  ~LRUCacheShard() {
    assert(in_use_.next == &in_use_);  // all handles released
    for (LRUHandle* list : {&lru_low_, &lru_high_}) {
      for (LRUHandle* e = list->next; e != list;) {
        LRUHandle* next = e->next;
        assert(e->in_cache);
        e->in_cache = false;
        assert(e->refs == 1);
        Unref(e);
        e = next;
      }
    }
  }

  void SetCapacity(size_t capacity, bool charge_metadata) {
    capacity_ = capacity;
    charge_metadata_ = charge_metadata;
  }

  Cache::Handle* Insert(const Slice& key, void* value, size_t charge,
                        void (*deleter)(const Slice& key, void* value),
                        Cache::Priority priority) {
    std::lock_guard<std::mutex> lock(mutex_);

    LRUHandle* e = reinterpret_cast<LRUHandle*>(
        malloc(sizeof(LRUHandle) - 1 + key.size()));
    e->value = value;
    e->deleter = deleter;
    e->charge = charge + (charge_metadata_ ? MetaCharge(key.size()) : 0);
    e->key_length = key.size();
    e->in_cache = false;
    e->priority = priority;
    e->refs = 1;  // for the returned handle
    memcpy(e->key_data, key.data(), key.size());

    if (capacity_ > 0) {
      e->refs++;  // for the cache's reference
      e->in_cache = true;
      LRU_Append(&in_use_, e);
      usage_ += e->charge;
      FinishErase(FindAndRemove(key));
    }  // else: caching disabled; still return a handle

    EvictUntilFits();
    if (e->in_cache) {
      table_.emplace(e->key_view(), e);
    }

    return reinterpret_cast<Cache::Handle*>(e);
  }

  Cache::Handle* Lookup(const Slice& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = table_.find(std::string_view(key.data(), key.size()));
    if (it == table_.end()) {
      return nullptr;
    }
    LRUHandle* e = it->second;
    Ref(e);
    return reinterpret_cast<Cache::Handle*>(e);
  }

  void Release(Cache::Handle* handle) {
    std::lock_guard<std::mutex> lock(mutex_);
    Unref(reinterpret_cast<LRUHandle*>(handle));
    // A release may have turned an entry evictable while the shard is
    // over budget (pinned entries can push usage past capacity);
    // reclaim now so TotalCharge() <= capacity holds whenever no
    // handles are outstanding.
    EvictUntilFits();
  }

  bool Erase(const Slice& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    LRUHandle* e = FindAndRemove(key);
    FinishErase(e);
    return e != nullptr;
  }

  size_t TotalCharge() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return usage_;
  }

 private:
  // Evicts low-priority entries oldest-first, then high-priority ones
  // only once no low-priority entry remains evictable.
  void EvictUntilFits() {
    while (usage_ > capacity_) {
      LRUHandle* old = nullptr;
      if (lru_low_.next != &lru_low_) {
        old = lru_low_.next;
      } else if (lru_high_.next != &lru_high_) {
        old = lru_high_.next;
      } else {
        break;  // everything left is referenced; cannot evict
      }
      assert(old->refs == 1);
      table_.erase(old->key_view());
      FinishErase(old);
    }
  }

  // Removes from hash table and returns the entry (or nullptr).
  LRUHandle* FindAndRemove(const Slice& key) {
    auto it = table_.find(std::string_view(key.data(), key.size()));
    if (it == table_.end()) {
      return nullptr;
    }
    LRUHandle* e = it->second;
    table_.erase(it);
    return e;
  }

  // Finalizes removal of *e from the cache (already removed from the
  // hash table).
  void FinishErase(LRUHandle* e) {
    if (e != nullptr) {
      assert(e->in_cache);
      LRU_Remove(e);
      e->in_cache = false;
      usage_ -= e->charge;
      Unref(e);
    }
  }

  void Ref(LRUHandle* e) {
    if (e->refs == 1 && e->in_cache) {  // on an lru list; move to in_use_
      LRU_Remove(e);
      LRU_Append(&in_use_, e);
    }
    e->refs++;
  }

  void Unref(LRUHandle* e) {
    assert(e->refs > 0);
    e->refs--;
    if (e->refs == 0) {
      assert(!e->in_cache);
      (*e->deleter)(e->key(), e->value);
      free(e);
    } else if (e->in_cache && e->refs == 1) {
      // No longer in use; move to its priority's evictable list.
      LRU_Remove(e);
      LRU_Append(e->priority == Cache::Priority::kHigh ? &lru_high_ : &lru_low_,
                 e);
    }
  }

  static void LRU_Remove(LRUHandle* e) {
    e->next->prev = e->prev;
    e->prev->next = e->next;
  }

  static void LRU_Append(LRUHandle* list, LRUHandle* e) {
    // Make e the newest entry by inserting just before *list.
    e->next = list;
    e->prev = list->prev;
    e->prev->next = e;
    e->next->prev = e;
  }

  mutable std::mutex mutex_;
  size_t capacity_ = 0;
  bool charge_metadata_ = true;
  size_t usage_ = 0;

  // Evictable entries (refs==1 and in_cache), oldest first, split by
  // priority: lru_low_ drains completely before lru_high_ is touched.
  LRUHandle lru_low_;
  LRUHandle lru_high_;
  // in_use_: entries the client holds references to.
  LRUHandle in_use_;

  HandleTable table_;
};

constexpr int kNumShardBits = 4;
constexpr int kNumShards = 1 << kNumShardBits;

class ShardedLRUCache final : public Cache {
 public:
  ShardedLRUCache(size_t capacity, bool charge_metadata) {
    // Floor split with the remainder spread over the first shards so
    // the per-shard capacities sum to exactly `capacity`. (A ceil
    // split would let the shards jointly exceed the configured budget
    // by up to kNumShards-1 bytes times the shard count.)
    const size_t base = capacity / kNumShards;
    const size_t extra = capacity % kNumShards;
    for (int i = 0; i < kNumShards; i++) {
      shards_[i].SetCapacity(base + (static_cast<size_t>(i) < extra ? 1 : 0),
                             charge_metadata);
    }
  }

  Handle* Insert(const Slice& key, void* value, size_t charge,
                 void (*deleter)(const Slice& key, void* value),
                 Priority priority) override {
    return shards_[Shard(key)].Insert(key, value, charge, deleter, priority);
  }
  Handle* Lookup(const Slice& key) override {
    return shards_[Shard(key)].Lookup(key);
  }
  void Release(Handle* handle) override {
    LRUHandle* h = reinterpret_cast<LRUHandle*>(handle);
    shards_[Shard(h->key())].Release(handle);
  }
  void* Value(Handle* handle) override {
    return reinterpret_cast<LRUHandle*>(handle)->value;
  }
  bool Erase(const Slice& key) override {
    return shards_[Shard(key)].Erase(key);
  }
  size_t TotalCharge() const override {
    size_t total = 0;
    for (const auto& shard : shards_) {
      total += shard.TotalCharge();
    }
    return total;
  }

 private:
  static uint32_t HashSlice(const Slice& s) {
    // FNV-1a.
    uint32_t h = 2166136261u;
    for (size_t i = 0; i < s.size(); i++) {
      h ^= static_cast<uint8_t>(s[i]);
      h *= 16777619u;
    }
    return h;
  }

  static uint32_t Shard(const Slice& key) {
    return HashSlice(key) >> (32 - kNumShardBits);
  }

  LRUCacheShard shards_[kNumShards];
};

}  // namespace

std::shared_ptr<Cache> NewLRUCache(size_t capacity, bool charge_metadata) {
  return std::make_shared<ShardedLRUCache>(capacity, charge_metadata);
}

}  // namespace shield
