// A mutex-guarded LRU map from a two-word key to a value, used by the serving
// engine for its response cache and its program-facts memo.
#ifndef SRC_SERVE_LRU_H_
#define SRC_SERVE_LRU_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>

namespace clara {
namespace serve {

template <typename V>
class LruMap {
 public:
  // Holds at most `capacity` entries; 0 keeps nothing.
  explicit LruMap(size_t capacity) : capacity_(capacity) {}

  LruMap(const LruMap&) = delete;
  LruMap& operator=(const LruMap&) = delete;

  // Copies the value of (hi, lo) into *out and marks it most recent; false
  // when absent.
  bool Get(uint64_t hi, uint64_t lo, V* out) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(Slot(hi, lo));
    if (it == index_.end() || it->second->hi != hi || it->second->lo != lo) {
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    *out = it->second->value;
    return true;
  }

  // Inserts or replaces (hi, lo), evicting the least recent entries beyond
  // capacity. Returns the entry count afterwards.
  size_t Put(uint64_t hi, uint64_t lo, V value) {
    std::lock_guard<std::mutex> lock(mu_);
    if (capacity_ == 0) {
      return 0;
    }
    auto it = index_.find(Slot(hi, lo));
    if (it != index_.end()) {
      // Same slot: either the same key or a colliding one it replaces.
      *it->second = Entry{hi, lo, std::move(value)};
      lru_.splice(lru_.begin(), lru_, it->second);
      return lru_.size();
    }
    lru_.push_front(Entry{hi, lo, std::move(value)});
    index_[Slot(hi, lo)] = lru_.begin();
    while (lru_.size() > capacity_) {
      index_.erase(Slot(lru_.back().hi, lru_.back().lo));
      lru_.pop_back();
    }
    return lru_.size();
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    lru_.clear();
    index_.clear();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
  }
  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    uint64_t hi;
    uint64_t lo;
    V value;
  };

  static uint64_t Slot(uint64_t hi, uint64_t lo) {
    return hi ^ (lo * 0x9E3779B97F4A7C15ULL);
  }

  mutable std::mutex mu_;
  const size_t capacity_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<uint64_t, typename std::list<Entry>::iterator> index_;
};

}  // namespace serve
}  // namespace clara

#endif  // SRC_SERVE_LRU_H_
