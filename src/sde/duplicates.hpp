// Duplicate-state detection.
//
// Duplicates — states with identical configuration (heap, stack, program
// counter, path constraints, communication history; §III-A) — are the
// quantity the paper's algorithms compete on: COB mass-produces them,
// COW produces bystander copies, SDS provably produces none (§III-D).
//
// Two notions are measured, in one scan:
//  * strict — packets distinguished by identity, matching the paper's
//    formal model (§II-B: packets are "unique and distinguishable").
//    The §III-D theorem states SDS is duplicate-free in this sense.
//  * content — packets compared by content only. Equal-content packets
//    from rival senders then make receiver states compare equal; this
//    quantifies the headroom of the content-analysis optimisation the
//    paper sketches (and deliberately does not implement) in §III-D.
//
// The scan is split over the CPUs the process may run on. The states
// fall into contiguous runs, one per allowed CPU but never fewer than
// 16,384 states a run, so small reports stay on the calling thread. Each
// run hashes its states into its own slice of two flat hash vectors
// (content and strict) and sorts that slice, on a helper thread bound to
// a CPU of its own (support/placed_threads.hpp: where the kernel does
// not balance load, unplaced threads can all stay on their creator's
// CPU).
// One k-way pass over the sorted slices then counts the classes, so a
// class whose states fall in several runs is counted once. The runs
// share no mutable data: configHash() only reads values the state
// stores. The helpers are joined before findDuplicates returns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "vm/state.hpp"

namespace sde {

struct DuplicateReport {
  std::uint64_t totalStates = 0;
  std::uint64_t distinctConfigurations = 0;
  // States beyond the first of each configuration class.
  std::uint64_t duplicateStates = 0;
  // Size of the largest configuration class.
  std::uint64_t largestClass = 0;

  [[nodiscard]] bool duplicateFree() const { return duplicateStates == 0; }
};

struct DuplicateReports {
  DuplicateReport strict;   // classes of configHashStrict()
  DuplicateReport content;  // classes of configHash()
};

// Both reports from one walk: each state's configHash() is computed once
// and its strict hash derived from it.
[[nodiscard]] DuplicateReports findDuplicates(
    const std::deque<std::unique_ptr<vm::ExecutionState>>& states);

namespace detail {

// One item's two hashes: configHash() and configHashStrict().
struct ConfigHashes {
  std::uint64_t content = 0;
  std::uint64_t strict = 0;
};

// The scan behind findDuplicates with its run count given instead of
// derived from the CPUs and the state count: items 0 .. count - 1 are
// split into `runs` contiguous runs (clamped to 1 .. count), and
// hashOf(i), called once per item and concurrently from different runs,
// gives item i's hashes.
[[nodiscard]] DuplicateReports scanInRuns(
    std::size_t count, unsigned runs,
    const std::function<ConfigHashes(std::size_t)>& hashOf);

}  // namespace detail

}  // namespace sde
