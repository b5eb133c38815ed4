#include "sim/cohort_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "gpumodel/kernel_model.h"
#include "util/contracts.h"
#include "util/units.h"

namespace grophecy::sim {

namespace {

// Unexhausted-demand bits of a cohort, for heap-backed demands only.
// Constant-rate demands (the floor; compute at one-block-per-SM occupancy)
// fold into the cohort's private wall-clock deadline instead.
constexpr std::uint8_t kComputeBit = 1;
constexpr std::uint8_t kMemoryBit = 2;

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

BlockDemands block_demands(const gpumodel::KernelCharacteristics& kc,
                           const hw::GpuSpec& gpu,
                           const gpumodel::Occupancy& occ) {
  const double clock_hz = gpu.core_clock_ghz * 1e9;
  const gpumodel::WarpDemands wd = gpumodel::warp_demands(kc, gpu);

  // Latency hiding among the SM's resident warps, capped by the MWP the
  // bus sustains (same overlap policy as the wave simulator).
  const double achieved_bw =
      gpu.mem_bandwidth_gbps * util::kGB * gpu.achieved_bw_fraction;
  const double bw_bytes_per_cycle_sm = achieved_bw / gpu.num_sms / clock_hz;
  const double dep_delay =
      wd.mem_insts > 0.0
          ? (wd.traffic_bytes / wd.mem_insts) / bw_bytes_per_cycle_sm
          : 1.0;
  const double mwp = std::max(1.0, gpu.dram_latency_cycles / dep_delay);
  const double resident_warps =
      std::max(1.0, static_cast<double>(occ.active_warps));
  const double overlap = std::max(1.0, std::min(resident_warps, mwp));

  BlockDemands demands;
  demands.compute_cycles =
      wd.warps_per_block * wd.insts_per_thread * wd.issue_cycles;
  demands.memory_bytes = wd.warps_per_block * wd.traffic_bytes;
  const double latency_cycles =
      wd.warps_per_block * wd.latency_cycles / overlap;
  const double sync_cycles =
      kc.syncs_per_thread *
      (gpu.sync_cycles + wd.warps_per_block * wd.issue_cycles);
  demands.floor_s = (latency_cycles + sync_cycles) / clock_hz;
  return demands;
}

double CohortEngine::simulate_expected(
    const gpumodel::KernelCharacteristics& kc, const hw::GpuSpec& gpu) {
  const gpumodel::Occupancy occ = gpumodel::compute_occupancy(
      gpu, kc.variant.block_size, kc.regs_per_thread,
      kc.smem_per_block_bytes);
  GROPHECY_EXPECTS(occ.blocks_per_sm > 0);

  const BlockDemands base = block_demands(kc, gpu, occ);
  const double sm_issue_rate = gpu.core_clock_ghz * 1e9;
  const double chip_bw =
      gpu.mem_bandwidth_gbps * util::kGB * gpu.achieved_bw_fraction;

  const int num_sms = gpu.num_sms;
  const std::int64_t capacity =
      static_cast<std::int64_t>(occ.blocks_per_sm) * num_sms;

  stats_ = CohortSimStats{};
  stats_.blocks = kc.num_blocks;

  // Without jitter every block of a launch carries bitwise-identical
  // demands, so the greedy scheduler's resident set is always ONE
  // synchronized generation: the chip fills, every resident block advances
  // at the same rates, all retire at the same instant, and the next
  // generation fills. Only the final partial generation splits — blocks
  // land on SMs holding either floor(G/num_sms) or ceil(G/num_sms)
  // residents, two cohorts with different compute shares. Advancing the
  // (at most two) cohorts with the reference engine's exact per-event
  // expressions reproduces its result bit for bit in O(1) work per event.
  struct GenCohort {
    double compute_left = 0.0;
    double memory_left = 0.0;
    double floor_left = 0.0;
    int consumers = 0;         ///< Resident blocks per SM of this class.
    std::int64_t count = 0;    ///< Blocks in the cohort.
    bool alive = false;
  };

  std::int64_t pending = kc.num_blocks;
  double now = 0.0;
  while (pending > 0) {
    const std::int64_t generation = std::min(pending, capacity);
    pending -= generation;
    ++stats_.generations;

    const std::int64_t q = generation / num_sms;
    const std::int64_t r = generation % num_sms;
    GenCohort cohorts[2];
    int num_cohorts = 0;
    if (r > 0) {
      // The first r SMs hold q+1 blocks each (greedy min-load placement
      // fills SMs round-robin, lowest index first).
      cohorts[num_cohorts++] = GenCohort{base.compute_cycles,
                                         base.memory_bytes,
                                         base.floor_s,
                                         static_cast<int>(q + 1),
                                         r * (q + 1),
                                         true};
    }
    if (q > 0) {
      cohorts[num_cohorts++] = GenCohort{base.compute_cycles,
                                         base.memory_bytes,
                                         base.floor_s,
                                         static_cast<int>(q),
                                         (num_sms - r) * q,
                                         true};
    }

    for (;;) {
      // Retire finished cohorts (degenerate zero-demand blocks retire
      // before any event fires, exactly like the reference's pre-pass).
      bool any_alive = false;
      for (int i = 0; i < num_cohorts; ++i) {
        GenCohort& cohort = cohorts[i];
        if (!cohort.alive) continue;
        if (cohort.compute_left <= kSimEps &&
            cohort.memory_left <= kSimEps && cohort.floor_left <= kSimEps) {
          cohort.alive = false;
        } else {
          any_alive = true;
        }
      }
      if (!any_alive) break;

      // Instantaneous fair-share rates: identical expressions (and thus
      // identical floating point) to the reference engine.
      int memory_consumers = 0;
      for (int i = 0; i < num_cohorts; ++i)
        if (cohorts[i].alive && cohorts[i].memory_left > kSimEps)
          memory_consumers += static_cast<int>(cohorts[i].count);
      const double mem_rate =
          memory_consumers > 0 ? chip_bw / memory_consumers : 0.0;

      double dt = kInf;
      for (int i = 0; i < num_cohorts; ++i) {
        const GenCohort& cohort = cohorts[i];
        if (!cohort.alive) continue;
        if (cohort.compute_left > kSimEps) {
          const double rate = sm_issue_rate / cohort.consumers;
          dt = std::min(dt, cohort.compute_left / rate);
        }
        if (cohort.memory_left > kSimEps)
          dt = std::min(dt, cohort.memory_left / mem_rate);
        if (cohort.floor_left > kSimEps) dt = std::min(dt, cohort.floor_left);
      }
      GROPHECY_ENSURES(std::isfinite(dt) && dt >= 0.0);

      now += dt;
      ++stats_.events;
      for (int i = 0; i < num_cohorts; ++i) {
        GenCohort& cohort = cohorts[i];
        if (!cohort.alive) continue;
        if (cohort.compute_left > kSimEps) {
          const double rate = sm_issue_rate / cohort.consumers;
          cohort.compute_left =
              std::max(0.0, cohort.compute_left - rate * dt);
        }
        if (cohort.memory_left > kSimEps)
          cohort.memory_left =
              std::max(0.0, cohort.memory_left - mem_rate * dt);
        if (cohort.floor_left > kSimEps)
          cohort.floor_left = std::max(0.0, cohort.floor_left - dt);
      }
    }
  }
  return now;
}

double CohortEngine::simulate_jittered(
    const gpumodel::KernelCharacteristics& kc, const hw::GpuSpec& gpu,
    double sigma, util::Rng& rng) {
  GROPHECY_EXPECTS(sigma > 0.0);
  const gpumodel::Occupancy occ = gpumodel::compute_occupancy(
      gpu, kc.variant.block_size, kc.regs_per_thread,
      kc.smem_per_block_bytes);
  GROPHECY_EXPECTS(occ.blocks_per_sm > 0);

  const BlockDemands base = block_demands(kc, gpu, occ);
  const double sm_issue_rate = gpu.core_clock_ghz * 1e9;
  const double chip_bw =
      gpu.mem_bandwidth_gbps * util::kGB * gpu.achieved_bw_fraction;

  const int num_sms = gpu.num_sms;
  const int cap_per_sm = occ.blocks_per_sm;
  const std::size_t mem_stream = static_cast<std::size_t>(num_sms);
  // The last stream slot holds private-deadline retirements, keyed by wall
  // clock: cohorts whose folded (constant-rate) demand outlives every
  // heap-backed demand park here until their deadline passes.
  const std::size_t deadline_stream = mem_stream + 1;
  const std::size_t num_streams = deadline_stream + 1;
  const std::int64_t capacity =
      static_cast<std::int64_t>(cap_per_sm) * num_sms;
  const auto capacity_sz = static_cast<std::size_t>(capacity);

  stats_ = CohortSimStats{};
  stats_.blocks = kc.num_blocks;

  // Reset the engine-owned scratch: clear-without-free plus up-front
  // reserves sized by the chip geometry, so on a warm engine the whole
  // simulation runs without touching the allocator (micro_sim gates this
  // with an operator-new counter). Thresholds are immutable once pushed —
  // rate changes remap drain level to wall clock but never reorder a
  // stream's exhaustions — so plain push/pop heaps suffice, and cohort
  // slots recycle only after every demand entry of the cohort is popped.
  streams_.assign(num_streams, StreamCore{});
  if (heaps_.size() < num_streams) heaps_.resize(num_streams);
  for (std::size_t s = 0; s < num_streams; ++s) {
    heaps_[s].clear();
    heaps_[s].reserve(s < mem_stream ? static_cast<std::size_t>(cap_per_sm)
                                     : capacity_sz);
  }
  next_time_.assign(num_streams, kInf);
  cohort_sm_.clear();
  cohort_remaining_.clear();
  cohort_deadline_.clear();
  free_cohorts_.clear();
  cohort_sm_.reserve(capacity_sz);
  cohort_remaining_.reserve(capacity_sz);
  cohort_deadline_.reserve(capacity_sz);
  free_cohorts_.reserve(capacity_sz);
  sm_load_.assign(static_cast<std::size_t>(num_sms), 0);
  compute_consumers_.assign(static_cast<std::size_t>(num_sms), 0);
  dirty_flag_.assign(num_streams, 0);
  dirty_.clear();
  dirty_.reserve(num_streams);
  draw_.clear();
  draw_.reserve(capacity_sz);

  // Fair-share rate tables by consumer count: bitwise the reference
  // expressions, divided once here instead of at every refresh. The
  // reciprocal uses c/rate rather than 1/(rate/c) — any faithful inverse
  // works, the division it replaces only sets event *times*.
  compute_rate_.resize(static_cast<std::size_t>(cap_per_sm) + 1);
  compute_inv_rate_.resize(compute_rate_.size());
  for (std::size_t c = 1; c < compute_rate_.size(); ++c) {
    compute_rate_[c] = sm_issue_rate / static_cast<double>(c);
    compute_inv_rate_[c] = static_cast<double>(c) / sm_issue_rate;
  }
  mem_rate_.resize(capacity_sz + 1);
  mem_inv_rate_.resize(mem_rate_.size());
  for (std::size_t c = 1; c < mem_rate_.size(); ++c) {
    mem_rate_[c] = chip_bw / static_cast<double>(c);
    mem_inv_rate_[c] = static_cast<double>(c) / chip_bw;
  }

  // --- Solo path: one block per SM. Every cohort owns its SM (the cohort
  // slot IS the SM id) and with it its whole compute stream: the
  // fair-share rate is frozen from placement to exhaustion, so compute and
  // floor fold into one private deadline. The engine reduces to exactly
  // two streams — the shared memory drain and the deadline heap — whose
  // state lives in registers with no dirty-list or next-time indirection.
  // Same physics, same expressions, same draw stream as the general loop
  // below, which therefore only ever sees two or more blocks per SM.
  if (cap_per_sm == 1) {
    util::FlatDaryHeap<4>& mem_heap = heaps_[mem_stream];
    util::FlatDaryHeap<4>& dl_heap = heaps_[deadline_stream];
    cohort_deadline_.assign(static_cast<std::size_t>(num_sms), 0.0);
    if (freed_sms_.size() < static_cast<std::size_t>(num_sms))
      freed_sms_.resize(static_cast<std::size_t>(num_sms));

    std::int64_t pending = kc.num_blocks;
    std::int64_t resident = 0;
    std::int64_t consumers = 0;
    double t = 0.0;
    double level = 0.0;
    double last_t = 0.0;
    double rate = 0.0;
    double inv_rate = 0.0;
    const double compute_inv = compute_inv_rate_[1];

    // Draws one block onto `sm`, redrawing through degenerate blocks
    // (which retire the instant they are placed, consuming their draw but
    // no slot). Returns false once the launch runs out of blocks.
    const auto place_on = [&](std::int32_t sm) -> bool {
      while (pending > 0) {
        --pending;
        const double jitter = rng.lognormal(1.0, sigma);
        const double compute = base.compute_cycles * jitter;
        const double memory = base.memory_bytes * jitter;
        const double floor = base.floor_s * jitter;
        if (compute <= kSimEps && memory <= kSimEps && floor <= kSimEps)
          continue;
        ++stats_.cohorts;
        double deadline = 0.0;
        if (compute > kSimEps) deadline = t + compute * compute_inv;
        if (floor > kSimEps) deadline = std::max(deadline, t + floor);
        cohort_deadline_[static_cast<std::size_t>(sm)] = deadline;
        ++resident;
        if (memory > kSimEps) {
          mem_heap.push(level + memory, sm);
          ++consumers;
        } else {
          dl_heap.push(deadline, sm);
        }
        return true;
      }
      return false;
    };

    // Initial fill: greedy places onto SM 0, 1, ... in index order.
    for (std::int32_t sm = 0; sm < num_sms && pending > 0; ++sm)
      place_on(sm);
    if (consumers > 0) {
      rate = mem_rate_[static_cast<std::size_t>(consumers)];
      inv_rate = mem_inv_rate_[static_cast<std::size_t>(consumers)];
    }
    double next_mem =
        !mem_heap.empty() && rate > 0.0
            ? last_t +
                  std::max(0.0, mem_heap.top_key() - level) * inv_rate
            : kInf;
    double next_dl = dl_heap.empty() ? kInf : dl_heap.top_key();

    while (resident > 0) {
      // Tie goes to the memory stream, the lower stream index.
      const bool is_mem = next_mem <= next_dl;
      const double event_t = is_mem ? next_mem : next_dl;
      GROPHECY_ENSURES(std::isfinite(event_t) && event_t >= t);
      t = event_t;
      ++stats_.events;

      int freed_n = 0;
      if (is_mem) {
        level += rate * (t - last_t);
        last_t = t;
        if (level < mem_heap.top_key()) level = mem_heap.top_key();
        do {
          const std::int32_t sm = mem_heap.top_value();
          mem_heap.pop();
          --consumers;
          const double deadline =
              cohort_deadline_[static_cast<std::size_t>(sm)];
          if (deadline > t) {
            dl_heap.push(deadline, sm);
          } else {
            --resident;
            freed_sms_[static_cast<std::size_t>(freed_n++)] = sm;
          }
        } while (!mem_heap.empty() && mem_heap.top_key() <= level);
      } else {
        do {
          const std::int32_t sm = dl_heap.top_value();
          dl_heap.pop();
          --resident;
          freed_sms_[static_cast<std::size_t>(freed_n++)] = sm;
        } while (!dl_heap.empty() && dl_heap.top_key() <= t);
      }

      if (pending > 0 && freed_n > 0) {
        // Greedy backfill = lowest-index free SM first.
        if (freed_n > 1)
          std::sort(freed_sms_.begin(), freed_sms_.begin() + freed_n);
        level += rate * (t - last_t);
        last_t = t;
        for (int i = 0; i < freed_n; ++i)
          if (!place_on(freed_sms_[static_cast<std::size_t>(i)])) break;
      }

      if (consumers > 0) {
        rate = mem_rate_[static_cast<std::size_t>(consumers)];
        inv_rate = mem_inv_rate_[static_cast<std::size_t>(consumers)];
      } else {
        rate = 0.0;
        inv_rate = 0.0;
      }
      next_mem =
          !mem_heap.empty() && rate > 0.0
              ? last_t +
                    std::max(0.0, mem_heap.top_key() - level) * inv_rate
              : kInf;
      next_dl = dl_heap.empty() ? kInf : dl_heap.top_key();
    }
    GROPHECY_ENSURES(pending == 0);
    return t;
  }

  std::int64_t pending = kc.num_blocks;
  std::int64_t resident = 0;
  std::int64_t mem_consumers = 0;
  double t = 0.0;

  auto mark_dirty = [&](std::size_t stream_id) {
    if (dirty_flag_[stream_id]) return;
    dirty_flag_[stream_id] = 1;
    dirty_.push_back(stream_id);
  };

  auto alloc_cohort = [&]() -> std::int32_t {
    if (!free_cohorts_.empty()) {
      const std::int32_t id = free_cohorts_.back();
      free_cohorts_.pop_back();
      return id;
    }
    cohort_sm_.push_back(0);
    cohort_remaining_.push_back(0);
    cohort_deadline_.push_back(0.0);
    return static_cast<std::int32_t>(cohort_sm_.size() - 1);
  };

  // Opens the cohort of one block on `sm` with the given jittered demands.
  // Heap-backed demands push their threshold (drain level at placement +
  // demand); the floor folds into the private deadline.
  auto open_cohort = [&](int sm, double compute, double memory,
                         double floor) __attribute__((always_inline)) {
    const std::int32_t id = alloc_cohort();
    const auto cid = static_cast<std::size_t>(id);
    cohort_sm_[cid] = sm;
    std::uint8_t remaining = 0;
    double deadline = 0.0;
    ++stats_.cohorts;
    if (compute > kSimEps) {
      remaining |= kComputeBit;
      const auto sm_id = static_cast<std::size_t>(sm);
      StreamCore& stream = streams_[sm_id];
      stream.level += stream.rate * (t - stream.last_t);
      stream.last_t = t;
      heaps_[sm_id].push(stream.level + compute, id);
      ++compute_consumers_[sm_id];
      mark_dirty(sm_id);
    }
    if (memory > kSimEps) {
      remaining |= kMemoryBit;
      StreamCore& stream = streams_[mem_stream];
      stream.level += stream.rate * (t - stream.last_t);
      stream.last_t = t;
      heaps_[mem_stream].push(stream.level + memory, id);
      ++mem_consumers;
      mark_dirty(mem_stream);
    }
    if (floor > kSimEps) {
      // The floor drains at rate 1 always: a pure wall-clock deadline.
      deadline = std::max(deadline, t + floor);
    }
    cohort_remaining_[cid] = remaining;
    cohort_deadline_[cid] = deadline;
    if (remaining == 0) {
      // Every demand folded: the cohort retires at its deadline.
      heaps_[deadline_stream].push(deadline, id);
      mark_dirty(deadline_stream);
    }
  };

  // Greedy backfill equivalent to the reference policy (one block at a
  // time to the least-loaded SM, lowest index on ties), restated as slot
  // enumeration: visit load levels from the current minimum upward and,
  // within a level, SMs in index order — O(1) amortized per block instead
  // of an O(num_sms) scan. Jitters for a whole batch of free slots are
  // drawn at once (the bulk fill is bitwise the sequential draw stream);
  // degenerate draws retire instantly without taking a slot, so the loop
  // re-draws until the chip is full or no blocks remain.
  auto place_pending = [&]() {
    int level = sm_load_[0];
    for (int s = 1; s < num_sms; ++s)
      level = std::min(level, sm_load_[static_cast<std::size_t>(s)]);
    int cursor = 0;
    std::int64_t free_slots = capacity - resident;
    while (pending > 0 && free_slots > 0) {
      const auto n = static_cast<std::size_t>(std::min(pending, free_slots));
      draw_.resize(n);
      if (n == 1) {
        // The steady-state common case (one freed slot, one draw): skip
        // the bulk-fill call layer; bitwise fill_lognormal(1.0, sigma, 1).
        draw_[0] = rng.lognormal(1.0, sigma);
      } else {
        rng.fill_lognormal(1.0, sigma, draw_.data(), n);
      }

      for (std::size_t j = 0; j < n; ++j) {
        --pending;
        const double jitter = draw_[j];
        const double compute = base.compute_cycles * jitter;
        const double memory = base.memory_bytes * jitter;
        const double floor = base.floor_s * jitter;
        if (compute <= kSimEps && memory <= kSimEps && floor <= kSimEps)
          continue;  // degenerate block: retires the instant it is placed

        while (sm_load_[static_cast<std::size_t>(cursor)] != level) {
          if (++cursor == num_sms) {
            cursor = 0;
            ++level;
            GROPHECY_ENSURES(level < cap_per_sm);
          }
        }
        const int sm = cursor;
        ++sm_load_[static_cast<std::size_t>(sm)];
        ++resident;
        --free_slots;
        if (++cursor == num_sms) {
          cursor = 0;
          ++level;
        }
        open_cohort(sm, compute, memory, floor);
      }
    }
  };

  // Recomputes a dirty stream's per-block drain rate from its consumer
  // count (a table load, not a divide) and rekeys its lazy next-exhaustion
  // time (a multiply by the precomputed reciprocal).
  auto refresh = [&](std::size_t stream_id) {
    if (stream_id == deadline_stream) {
      // Deadline keys are wall-clock times already.
      next_time_[deadline_stream] = heaps_[deadline_stream].empty()
                                        ? kInf
                                        : heaps_[deadline_stream].top_key();
      return;
    }
    StreamCore& stream = streams_[stream_id];
    stream.level += stream.rate * (t - stream.last_t);
    stream.last_t = t;
    if (stream_id < mem_stream) {
      const std::int64_t consumers = compute_consumers_[stream_id];
      if (consumers > 0) {
        stream.rate = compute_rate_[static_cast<std::size_t>(consumers)];
        stream.inv_rate =
            compute_inv_rate_[static_cast<std::size_t>(consumers)];
      } else {
        stream.rate = 0.0;
        stream.inv_rate = 0.0;
      }
    } else {
      if (mem_consumers > 0) {
        stream.rate = mem_rate_[static_cast<std::size_t>(mem_consumers)];
        stream.inv_rate =
            mem_inv_rate_[static_cast<std::size_t>(mem_consumers)];
      } else {
        stream.rate = 0.0;
        stream.inv_rate = 0.0;
      }
    }
    double key = kInf;
    const auto& heap = heaps_[stream_id];
    if (!heap.empty() && stream.rate > 0.0) {
      // max(0, ...) guards the one-ulp overshoot when a tied stream was
      // advanced exactly onto its own next threshold by another event.
      key = stream.last_t +
            std::max(0.0, heap.top_key() - stream.level) * stream.inv_rate;
    }
    next_time_[stream_id] = key;
  };

  auto flush_dirty = [&]() {
    for (const std::size_t id : dirty_) {
      dirty_flag_[id] = 0;
      refresh(id);
    }
    dirty_.clear();
  };

  place_pending();
  flush_dirty();

  while (resident > 0) {
    // Cross-stream pick: a vectorizable min over the lazy per-stream
    // next-exhaustion times, then the lowest tied index. For the few dozen
    // streams of a real chip this beats re-sifting an indexed heap on
    // every rate change.
    double event_t = next_time_[0];
    std::size_t stream_id = 0;
    for (std::size_t s = 1; s < num_streams; ++s) {
      if (next_time_[s] < event_t) {
        event_t = next_time_[s];
        stream_id = s;  // strict < keeps the lowest tied index
      }
    }
    GROPHECY_ENSURES(std::isfinite(event_t) && event_t >= t);
    t = event_t;
    ++stats_.events;

    int freed_count = 0;
    int freed_sm = 0;
    // Retires a cohort whose heap-backed demands are all exhausted — or
    // parks it on the deadline heap when a folded demand outlives them.
    auto finish_or_defer = [&](std::size_t cid) {
      if (cohort_remaining_[cid] != 0) return;
      const double deadline = cohort_deadline_[cid];
      if (deadline > t) {
        heaps_[deadline_stream].push(deadline,
                                     static_cast<std::int32_t>(cid));
        mark_dirty(deadline_stream);
        return;
      }
      --sm_load_[static_cast<std::size_t>(cohort_sm_[cid])];
      --resident;
      free_cohorts_.push_back(static_cast<std::int32_t>(cid));
      ++freed_count;
      freed_sm = cohort_sm_[cid];
    };

    auto& heap = heaps_[stream_id];
    GROPHECY_ENSURES(!heap.empty());
    if (stream_id == deadline_stream) {
      // Deadline retirements: remaining is 0 by construction, the slots
      // just come free now.
      do {
        const auto cid = static_cast<std::size_t>(heap.top_value());
        heap.pop();
        --sm_load_[static_cast<std::size_t>(cohort_sm_[cid])];
        --resident;
        free_cohorts_.push_back(static_cast<std::int32_t>(cid));
        ++freed_count;
        freed_sm = cohort_sm_[cid];
      } while (!heap.empty() && heap.top_key() <= t);
    } else {
      StreamCore& stream = streams_[stream_id];
      stream.level += stream.rate * (t - stream.last_t);
      stream.last_t = t;
      // Snap onto the triggering threshold: the event time was computed as
      // the exact crossing, so any residue is rounding, not physics.
      if (stream.level < heap.top_key()) stream.level = heap.top_key();

      if (stream_id < mem_stream) {
        do {
          const auto cid = static_cast<std::size_t>(heap.top_value());
          heap.pop();
          --compute_consumers_[stream_id];
          cohort_remaining_[cid] &= static_cast<std::uint8_t>(~kComputeBit);
          finish_or_defer(cid);
        } while (!heap.empty() && heap.top_key() <= stream.level);
      } else {
        do {
          const auto cid = static_cast<std::size_t>(heap.top_value());
          heap.pop();
          --mem_consumers;
          cohort_remaining_[cid] &= static_cast<std::uint8_t>(~kMemoryBit);
          finish_or_defer(cid);
        } while (!heap.empty() && heap.top_key() <= stream.level);
      }
    }
    mark_dirty(stream_id);

    if (freed_count > 0 && pending > 0) {
      if (freed_count == 1) {
        // Steady-state fast path: while blocks are pending the chip was
        // full before this event, so the single freed slot is the unique
        // least-loaded SM — no min scan, no batch machinery. Draw order
        // matches place_pending exactly (one draw per pending decrement,
        // redrawing through degenerate blocks).
        while (pending > 0) {
          --pending;
          const double jitter = rng.lognormal(1.0, sigma);
          const double compute = base.compute_cycles * jitter;
          const double memory = base.memory_bytes * jitter;
          const double floor = base.floor_s * jitter;
          if (compute <= kSimEps && memory <= kSimEps && floor <= kSimEps)
            continue;
          ++sm_load_[static_cast<std::size_t>(freed_sm)];
          ++resident;
          open_cohort(freed_sm, compute, memory, floor);
          break;
        }
      } else {
        place_pending();
      }
    }
    flush_dirty();
  }
  GROPHECY_ENSURES(pending == 0);
  return t;
}

}  // namespace grophecy::sim
