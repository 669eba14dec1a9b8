// A read-mostly concurrent map: lock-free lookups, copy-on-write batch
// inserts (docs/PERF.md "Parallel scaling").
//
// Protocol: the current contents live in an immutable hash map published
// through an atomic pointer. A lookup is one acquire load plus a probe — no
// lock, no shared writes. A writer copies the current map under a mutex,
// adds its keys, and publishes the copy with a release store. Superseded
// maps are retired, never freed, until the SnapshotMap is destroyed, so a
// reader still probing yesterday's map is safe and a pointer returned by
// find() stays valid for the SnapshotMap's lifetime, even across clear().
// Memory is therefore the sum of every map ever published: callers batch
// their inserts so that republishes stay rare.
//
// placement::LutCache (completed LUT builds) and fleet::OutcomeCache (slice
// outcomes) are both built on it.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hhpim {

template <class K, class V, class Hash = std::hash<K>>
class SnapshotMap {
 public:
  SnapshotMap() = default;
  SnapshotMap(const SnapshotMap&) = delete;
  SnapshotMap& operator=(const SnapshotMap&) = delete;

  /// Lock-free: the value stored for `key`, or nullptr. The pointer stays
  /// valid until the SnapshotMap is destroyed.
  [[nodiscard]] const V* find(const K& key) const {
    const Map* snap = current_.load(std::memory_order_acquire);
    if (snap == nullptr) return nullptr;
    const auto it = snap->find(key);
    return it != snap->end() ? &it->second : nullptr;
  }

  /// Adds every key of `entries` not already present; the first writer of a
  /// key wins. Publishes one copy for the whole batch, and none when the
  /// batch has no new key. Returns the number of keys added. Safe to call
  /// concurrently with find() and other inserts.
  std::size_t insert(std::span<const std::pair<K, V>> entries) {
    if (entries.empty()) return 0;
    const std::lock_guard<std::mutex> lock{mu_};
    const Map* cur = current_.load(std::memory_order_relaxed);
    if (cur != nullptr) {
      bool any_new = false;
      for (const auto& e : entries) {
        if (!cur->contains(e.first)) {
          any_new = true;
          break;
        }
      }
      if (!any_new) return 0;
    }
    auto next = cur != nullptr ? std::make_unique<Map>(*cur) : std::make_unique<Map>();
    std::size_t added = 0;
    for (const auto& e : entries) {
      if (next->emplace(e.first, e.second).second) ++added;
    }
    publish_locked(std::move(next));
    return added;
  }

  /// Forgets every key. Values already handed out by find() stay valid.
  void clear() {
    const std::lock_guard<std::mutex> lock{mu_};
    // The current map already lives in retired_; readers treat null as
    // empty.
    current_.store(nullptr, std::memory_order_release);
  }

  /// Keys in the current map.
  [[nodiscard]] std::size_t size() const {
    const Map* snap = current_.load(std::memory_order_acquire);
    return snap != nullptr ? snap->size() : 0;
  }

 private:
  using Map = std::unordered_map<K, V, Hash>;

  /// Publishes `next` (mu_ held); every map ever published stays in
  /// retired_ until destruction.
  void publish_locked(std::unique_ptr<const Map> next) {
    current_.store(next.get(), std::memory_order_release);
    retired_.push_back(std::move(next));
  }

  std::atomic<const Map*> current_{nullptr};
  std::vector<std::unique_ptr<const Map>> retired_;
  std::mutex mu_;  ///< serializes writers; guards retired_
};

}  // namespace hhpim
