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
#pragma once

#include <cstdint>
#include <deque>
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

}  // namespace sde
