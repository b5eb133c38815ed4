// util::FlatDaryHeap — property tests against a std::priority_queue
// oracle, plus the buffer-reuse contracts the cohort engine's
// allocation-free steady state leans on.
#include "util/flat_dary_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace {

using grophecy::util::FlatDaryHeap;
using grophecy::util::Rng;

// Min-oriented oracle over (key, value) pairs. Ties on key are allowed to
// surface in any order, so the oracle compares keys only.
using OraclePair = std::pair<double, std::int32_t>;
struct KeyGreater {
  bool operator()(const OraclePair& a, const OraclePair& b) const {
    return a.first > b.first;
  }
};
using Oracle =
    std::priority_queue<OraclePair, std::vector<OraclePair>, KeyGreater>;

template <int Arity>
void random_ops_match_oracle(std::uint64_t seed) {
  FlatDaryHeap<Arity> heap;
  Oracle oracle;
  Rng rng(seed);
  std::int32_t next_value = 0;

  for (int op = 0; op < 20000; ++op) {
    const bool push =
        oracle.empty() || rng.uniform() < 0.55;  // drift toward growth
    if (push) {
      // Coarse keys force plenty of exact ties.
      const double key = static_cast<double>(rng.uniform_int(-50, 50));
      heap.push(key, next_value);
      oracle.push({key, next_value});
      ++next_value;
    } else {
      ASSERT_EQ(heap.top_key(), oracle.top().first);
      heap.pop();
      oracle.pop();
    }
    ASSERT_EQ(heap.size(), oracle.size());
    ASSERT_EQ(heap.empty(), oracle.empty());
    if (!heap.empty()) {
      ASSERT_EQ(heap.top_key(), oracle.top().first);
    }
  }
  // Drain: every remaining key comes out in sorted order.
  while (!oracle.empty()) {
    ASSERT_EQ(heap.top_key(), oracle.top().first);
    heap.pop();
    oracle.pop();
  }
  ASSERT_TRUE(heap.empty());
}

TEST(FlatDaryHeap, RandomOpsMatchPriorityQueueArity2) {
  random_ops_match_oracle<2>(101);
}

TEST(FlatDaryHeap, RandomOpsMatchPriorityQueueArity4) {
  random_ops_match_oracle<4>(202);
}

TEST(FlatDaryHeap, RandomOpsMatchPriorityQueueArity8) {
  random_ops_match_oracle<8>(303);
}

TEST(FlatDaryHeap, PayloadsTravelWithTheirKeys) {
  // Distinct keys so the (key -> value) association is fully determined.
  FlatDaryHeap<4> heap;
  Rng rng(7);
  std::vector<double> keys;
  for (std::int32_t i = 0; i < 500; ++i) {
    double key;
    do {
      key = rng.uniform();
    } while (std::find(keys.begin(), keys.end(), key) != keys.end());
    keys.push_back(key);
    heap.push(key, i);
  }
  while (!heap.empty()) {
    const double key = heap.top_key();
    const std::int32_t value = heap.top_value();
    ASSERT_EQ(key, keys[static_cast<std::size_t>(value)]);
    heap.pop();
  }
}

TEST(FlatDaryHeap, SortsAdversarialPatterns) {
  // Ascending, descending, and all-equal pushes — the classic sift edge
  // cases (last-entry hole filling, full-depth percolation).
  for (const int pattern : {0, 1, 2}) {
    FlatDaryHeap<4> heap;
    std::vector<double> expect;
    for (int i = 0; i < 257; ++i) {
      const double key = pattern == 0   ? static_cast<double>(i)
                         : pattern == 1 ? static_cast<double>(-i)
                                        : 42.0;
      heap.push(key, i);
      expect.push_back(key);
    }
    std::sort(expect.begin(), expect.end());
    for (const double key : expect) {
      ASSERT_EQ(heap.top_key(), key);
      heap.pop();
    }
    ASSERT_TRUE(heap.empty());
  }
}

TEST(FlatDaryHeap, ClearKeepsBuffersAndReusesThemCorrectly) {
  FlatDaryHeap<4> heap;
  heap.reserve(1000);
  Rng rng(11);
  // Several fill/clear rounds: after a clear the heap must behave like a
  // fresh one (no stale entries bleeding through the kept buffers).
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(heap.empty());
    Oracle oracle;
    for (int i = 0; i < 1000; ++i) {
      const double key = rng.uniform();
      heap.push(key, i);
      oracle.push({key, i});
    }
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(heap.top_key(), oracle.top().first);
      heap.pop();
      oracle.pop();
    }
    heap.clear();
    ASSERT_EQ(heap.size(), 0u);
  }
}

}  // namespace
