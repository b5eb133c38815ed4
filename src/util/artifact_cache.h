// Process-wide caches for immutable, content-addressed pipeline artifacts.
//
// The projection pipeline derives several artifacts that are pure
// functions of their inputs: a built workload skeleton is a pure function
// of (workload, size, iterations), a transfer plan and the kernels' BRS
// footprints of the skeleton content, a kernel's best variant of the
// skeleton content, kernel, fuse factor, GPU and explorer options, and a
// PCIe calibration of (bus spec, procedure, memory mode, seed). Each job
// of a sweep would re-derive them; one instance of this cache per
// artifact kind derives each once per process and hands every later
// consumer the same immutable object.
//
//   * Keys are 64-bit FNV-1a content hashes (build them with KeyBuilder).
//   * Values are `shared_ptr<const Value>`: immutable and safely shared
//     across SweepEngine workers without copies or locks on the artifact.
//   * get_or_build is single-flight per key: concurrent misses on one key
//     run the factory exactly once, everyone else blocks on the shared
//     future. Distinct keys build concurrently (the factory runs outside
//     the cache lock). A throwing factory is evicted, never cached.
//   * hits/misses counters feed the accounting that paper_report prints
//     (docs/performance.md).
//
// Determinism: a cached artifact is bit-identical to what the caller
// would have built itself — content-addressed keys guarantee it. Cache
// hits change wall-clock time, never results.
#pragma once

#include <bit>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>

namespace grophecy::util {

/// Incrementally folds heterogeneous fields into one 64-bit FNV-1a state,
/// the key scheme of every ArtifactCache instance. Strings are length
/// prefixed so ("ab","c") and ("a","bc") fold differently; doubles are
/// folded via their bit representation, since a cache must distinguish
/// any inputs the computation could distinguish.
class KeyBuilder {
 public:
  KeyBuilder& field(std::uint64_t value) {
    hash_ = fold(hash_, value);
    return *this;
  }
  KeyBuilder& field(std::int64_t value) {
    return field(static_cast<std::uint64_t>(value));
  }
  KeyBuilder& field(int value) {
    return field(static_cast<std::int64_t>(value));
  }
  KeyBuilder& field(bool value) { return field(std::uint64_t{value ? 1u : 0u}); }
  KeyBuilder& field(double value) {
    return field(std::bit_cast<std::uint64_t>(value));
  }
  KeyBuilder& field(std::string_view value) {
    field(static_cast<std::uint64_t>(value.size()));
    for (char c : value) hash_ = fold(hash_, static_cast<unsigned char>(c));
    return *this;
  }
  /// Without this overload a string literal would take the bool overload
  /// (pointer-to-bool is a standard conversion and beats string_view's
  /// user-defined one), silently collapsing every literal to `true`.
  KeyBuilder& field(const char* value) {
    return field(std::string_view(value));
  }

  std::uint64_t hash() const { return hash_; }

 private:
  static std::uint64_t fold(std::uint64_t hash, std::uint64_t value) {
    // FNV-1a over the value's eight bytes, little-endian.
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
    return hash;
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis.
};

/// One process-wide cache of immutable artifacts. Thread-safe; see file
/// comment for the single-flight and determinism contracts.
template <typename Value>
class ArtifactCache {
 public:
  using Artifact = std::shared_ptr<const Value>;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  /// Returns the artifact for `key`, running `factory` (a callable
  /// returning Value, outside the lock) exactly once per key to produce
  /// it. Concurrent callers with the same key block until the in-flight
  /// build finishes. A throwing factory poisons nothing: the failed entry
  /// is evicted so a later call may retry, and the exception propagates
  /// to every caller waiting on that flight. When `from_cache` is
  /// non-null it is set to true on a hit. A hit allocates nothing: the
  /// promise and its flight are made only on a miss, and the factory is
  /// never type-erased.
  template <typename Factory>
  Artifact get_or_build(std::uint64_t key, Factory&& factory,
                        bool* from_cache = nullptr) {
    std::optional<std::promise<Artifact>> promise;
    std::shared_ptr<Flight> flight;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        ++hits_;
        flight = it->second;
      } else {
        ++misses_;
        promise.emplace();
        flight = std::make_shared<Flight>(promise->get_future().share());
        entries_.emplace(key, flight);
      }
    }

    if (promise) {
      try {
        promise->set_value(std::make_shared<const Value>(factory()));
      } catch (...) {
        promise->set_exception(std::current_exception());
        // Evict by flight *identity*, not by key: if clear() raced in
        // between and a fresh, healthy flight already occupies the key,
        // that successor must survive — erasing by key would drop it and
        // re-run its factory, breaking single-flight.
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end() && it->second == flight) entries_.erase(it);
      }
    }

    if (from_cache) *from_cache = !promise;
    return flight->future.get();  // waits for the in-flight owner
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return {hits_, misses_};
  }

  /// Cached entries (completed or in flight).
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

  /// Drops every entry and zeroes the counters (tests and benchmarks).
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    hits_ = 0;
    misses_ = 0;
  }

 private:
  /// An in-flight (or completed) build. Held by shared_ptr so the failed
  /// -flight eviction path can compare identities: std::shared_future has
  /// no operator==, but the owning handle does.
  struct Flight {
    explicit Flight(std::shared_future<Artifact> f) : future(std::move(f)) {}
    std::shared_future<Artifact> future;
  };

  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<Flight>> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace grophecy::util
