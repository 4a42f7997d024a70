// Model-based property test of the copy-on-write register file of
// vm::ExecutionState (vm/state.hpp): one block of kNumRegisters values
// shared between forked states until one of them writes it.
//
// A family of states forked from one another runs a random sequence of
// fork, write and destroy steps, and each state is paired with a plain
// std::array model that the same steps drive. At every step:
//  * every live state's registers equal its model, read whole through
//    regs() — so a state that sees a sibling's write fails;
//  * right after a fork the copy holds the very block of its source;
//  * a write clones the block exactly when another state holds it (the
//    holders keep the old block and its values), writes an owned block
//    in place, and makes the first block of a state that had none;
//  * states with equal models have equal configuration hashes (the
//    family differs in nothing but registers).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <string>

#include "vm/builder.hpp"
#include "vm/state.hpp"

namespace sde::vm {
namespace {

constexpr std::size_t kStates = 6;
constexpr int kSteps = 300;
constexpr std::uint64_t kSeeds = 300;

// How often the operations that matter were reached: a run that never
// shares or never clones proves nothing.
struct Coverage {
  std::uint64_t sharingForks = 0;   // forks of a state holding a block
  std::uint64_t blockClones = 0;    // writes to a shared block
  std::uint64_t inPlaceWrites = 0;  // writes to an owned block
  std::uint64_t firstBlocks = 0;    // writes by a state without a block
};

class Family {
 public:
  Family(std::uint64_t seed, expr::Context& ctx, const Program& program,
         Coverage& coverage)
      : rng_(seed), ctx_(ctx), program_(program), coverage_(coverage) {}

  void step() {
    const std::size_t i = pick(kStates);
    const std::size_t j = pick(kStates);
    if (!states_[i]) {
      states_[i] = std::make_unique<ExecutionState>(nextId_++, 1, program_);
      models_[i] = Registers{};
    }
    switch (pick(8)) {
      case 0:
      case 1:
        return fork(i, j);
      case 7:
        states_[i].reset();
        return;
      default:
        return write(i);
    }
  }

  // Every check that must hold between steps.
  void check() const {
    for (std::size_t i = 0; i < kStates; ++i) {
      if (!states_[i]) continue;
      SCOPED_TRACE("state " + std::to_string(i));
      EXPECT_EQ(states_[i]->regs(), models_[i]);
      for (std::size_t k = 0; k < i; ++k)
        if (states_[k] && models_[k] == models_[i])
          EXPECT_EQ(states_[k]->configHash(), states_[i]->configHash());
    }
  }

 private:
  std::size_t pick(std::size_t n) { return rng_() % n; }

  expr::Ref randomValue() {
    return pick(3) == 0 ? ctx_.variable("v" + std::to_string(pick(4)), 64)
                        : ctx_.constant(pick(5), 64);
  }

  // Live states other than `self` whose register file is `block`.
  std::size_t holders(std::size_t self, const Registers* block) const {
    std::size_t n = 0;
    for (std::size_t k = 0; k < kStates; ++k)
      if (k != self && states_[k] && &states_[k]->regs() == block) ++n;
    return n;
  }

  void fork(std::size_t from, std::size_t to) {
    if (from == to) return;
    states_[to] = states_[from]->fork(nextId_++);
    models_[to] = models_[from];
    EXPECT_EQ(&states_[to]->regs(), &states_[from]->regs())
        << "a fork copied the register file";
    if (&states_[from]->regs() != &fresh_.regs()) ++coverage_.sharingForks;
  }

  void write(std::size_t i) {
    const auto index = static_cast<std::size_t>(pick(kNumRegisters));
    const expr::Ref value = randomValue();
    const Registers* before = &states_[i]->regs();
    const bool hadBlock = before != &fresh_.regs();
    const std::size_t sharers = holders(i, before);
    states_[i]->mutableRegs()[index] = value;
    models_[i][index] = value;
    const Registers* after = &states_[i]->regs();
    if (!hadBlock) {
      EXPECT_NE(after, before) << "a write left the state without a block";
      ++coverage_.firstBlocks;
    } else if (sharers > 0) {
      EXPECT_NE(after, before) << "a shared block was written in place";
      EXPECT_EQ(holders(i, before), sharers)
          << "a sibling lost the block it shared";
      ++coverage_.blockClones;
    } else {
      EXPECT_EQ(after, before) << "an owned block was cloned";
      ++coverage_.inPlaceWrites;
    }
  }

  std::mt19937_64 rng_;
  expr::Context& ctx_;
  const Program& program_;
  Coverage& coverage_;
  // A state that never wrote: its regs() is the static empty file.
  const ExecutionState fresh_{0, 1, program_};
  StateId nextId_ = 1;
  std::array<std::unique_ptr<ExecutionState>, kStates> states_;
  std::array<Registers, kStates> models_{};
};

TEST(RegisterFileModelTest, RandomOperationsMatchAStdArrayModel) {
  IRBuilder b("noop");
  b.beginEntry(Entry::kInit);
  b.halt();
  const Program program = b.finish();
  expr::Context ctx;
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Family family(seed, ctx, program, coverage);
    for (int step = 0; step < kSteps; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      family.step();
      family.check();
      if (::testing::Test::HasFailure()) break;
    }
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(coverage.sharingForks, 0u);
  EXPECT_GT(coverage.blockClones, 0u);
  EXPECT_GT(coverage.inPlaceWrites, 0u);
  EXPECT_GT(coverage.firstBlocks, 0u);
}

}  // namespace
}  // namespace sde::vm
