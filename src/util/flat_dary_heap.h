// Flat d-ary min-heap in structure-of-arrays layout.
//
// A binary heap of (key, payload) structs is the textbook answer for "pop
// the smallest threshold", but on a hot path it pays twice: every sift
// moves 16-byte pairs, and every comparison loads a key from a strided
// AoS layout. This heap stores the keys and payloads in two parallel
// arrays (`keys_[]` / `values_[]`) so a sift-down compares up to `Arity`
// *contiguous* keys per level — one cache line covers a whole node family
// — and hole-percolation moves each entry once instead of swapping.
// Arity 4 halves the tree depth of a binary heap while keeping the
// per-level scan inside a single cache line of keys.
//
// Used by the cohort event simulator for its per-stream exhaustion
// thresholds (threshold[] / cohort[]). Not thread-safe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace grophecy::util {

/// Min-heap of `double` keys with an `int32` payload, stored as parallel
/// arrays. `clear()` keeps the buffers, so a reserved heap can be reused
/// across runs without allocating.
template <int Arity = 4>
class FlatDaryHeap {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

 public:
  std::size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }

  /// Pre-grows the buffers; later pushes up to `n` never allocate.
  void reserve(std::size_t n) {
    keys_.reserve(n);
    values_.reserve(n);
  }

  /// Removes every entry but keeps the buffers (no deallocation).
  void clear() {
    keys_.clear();
    values_.clear();
  }

  /// Smallest key. Undefined on an empty heap (hot path: no contract
  /// check here — callers guard with empty()).
  double top_key() const { return keys_[0]; }

  /// Payload of the smallest key. Undefined on an empty heap.
  std::int32_t top_value() const { return values_[0]; }

  void push(double key, std::int32_t value) {
    std::size_t hole = keys_.size();
    keys_.push_back(key);
    values_.push_back(value);
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / Arity;
      if (keys_[parent] <= key) break;
      keys_[hole] = keys_[parent];
      values_[hole] = values_[parent];
      hole = parent;
    }
    keys_[hole] = key;
    values_[hole] = value;
  }

  /// Removes the smallest entry. Undefined on an empty heap.
  void pop() {
    const std::size_t n = keys_.size() - 1;
    const double key = keys_[n];
    const std::int32_t value = values_[n];
    keys_.pop_back();
    values_.pop_back();
    if (n == 0) return;
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = hole * Arity + 1;
      if (first >= n) break;
      const std::size_t last = first + Arity < n ? first + Arity : n;
      std::size_t best = first;
      double best_key = keys_[first];
      for (std::size_t child = first + 1; child < last; ++child) {
        if (keys_[child] < best_key) {
          best = child;
          best_key = keys_[child];
        }
      }
      if (key <= best_key) break;
      keys_[hole] = best_key;
      values_[hole] = values_[best];
      hole = best;
    }
    keys_[hole] = key;
    values_[hole] = value;
  }

 private:
  std::vector<double> keys_;
  std::vector<std::int32_t> values_;
};

}  // namespace grophecy::util
