// Random node-program generator shared by the randomised differential
// tests (cross-algorithm fuzz equivalence, partitioned-vs-legacy fuzz
// equivalence). Generates a terminating handler body: straight-line ALU
// soup with occasional symbolic inputs, forward-only symbolic branches,
// global traffic and broadcasts. All registers stay in r3..r9, all
// globals in slots 8..15 (0..7 are the rime configuration slots, unused
// here).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rime/apps.hpp"
#include "support/rng.hpp"
#include "vm/builder.hpp"

namespace sde {

class RandomProgramGen {
 public:
  // quietBranchArms: branch arm bodies emit no sends and mint no
  // symbolics, so sibling forks differ only in registers, globals and
  // path constraints — the shape the state merger can absorb. Used by
  // the merge-equivalence battery; default off preserves the historical
  // programs the other differential oracles explore.
  explicit RandomProgramGen(std::uint64_t seed, bool quietBranchArms = false)
      : rng_(seed), quietBranchArms_(quietBranchArms) {}

  vm::Program generate() {
    using vm::Entry;
    using vm::IRBuilder;
    using vm::Reg;
    IRBuilder b("fuzz");
    b.setGlobals(16);

    b.beginEntry(Entry::kInit);
    b.constant(Reg(3), 1000);
    b.setTimer(1, Reg(3));
    b.halt();

    b.beginEntry(Entry::kTimer);
    emitBody(b, /*allowSend=*/true);
    b.constant(Reg(3), 1000);
    b.setTimer(1, Reg(3));
    b.halt();

    b.beginEntry(Entry::kRecv);
    // Reception-triggered sends are what create mapping conflicts, but
    // unconditional echo turns broadcasts into an exponential event
    // storm. Gate them one-shot per state via a global flag: feedback
    // preserved, storm bounded.
    {
      auto skipSend = b.newLabel();
      const bool sends = rng_.chance(0.7);
      if (sends) {
        b.loadGlobal(Reg(10), 15);
        b.branchIfNonZero(Reg(10), skipSend);
      }
      emitBody(b, /*allowSend=*/sends);
      if (sends) {
        b.constant(Reg(10), 1);
        b.storeGlobal(Reg(10), 15);
        b.bind(skipSend);
      }
    }
    b.halt();

    return b.finish();
  }

 private:
  vm::Reg reg() { return vm::Reg(3 + static_cast<unsigned>(rng_.below(7))); }
  std::uint64_t slot() { return 8 + rng_.below(8); }
  unsigned symbolicWidth() {
    return 1 + static_cast<unsigned>(rng_.below(4));
  }
  // The engine names a symbolic input by its label and a per-label
  // counter, and an expression variable has one width, so each width
  // gets its own label.
  static std::string symbolicLabel(unsigned width) {
    return "f" + std::to_string(width);
  }

  void emitOps(vm::IRBuilder& b, int count, bool allowSend,
               bool allowSymbolic = true) {
    using vm::Op;
    using vm::Reg;
    for (int i = 0; i < count; ++i) {
      switch (rng_.below(8)) {
        case 0:
          b.constant(reg(), static_cast<std::int64_t>(rng_.below(256)));
          break;
        case 1: {
          static constexpr Op kOps[] = {Op::kAdd, Op::kSub, Op::kMul,
                                        Op::kAnd, Op::kOr,  Op::kXor,
                                        Op::kUlt, Op::kEq};
          b.alu(kOps[rng_.below(std::size(kOps))], reg(), reg(), reg());
          break;
        }
        case 2:
          b.loadGlobal(reg(), slot());
          break;
        case 3:
          b.storeGlobal(reg(), slot());
          break;
        case 4:
          // Few, narrow symbolic inputs keep solver enumeration domains
          // small (random 64-bit dataflow defeats interval narrowing).
          if (allowSymbolic && symbolics_ < 2) {
            // The width is drawn before the register: the batteries'
            // seeds were chosen for the programs this draw order makes.
            const unsigned width = symbolicWidth();
            b.makeSymbolic(reg(), symbolicLabel(width), width);
            ++symbolics_;
          }
          break;
        case 5:
          b.bvNot(reg(), reg());
          break;
        case 6:
          b.aluImm(Op::kUlt, reg(), reg(),
                   static_cast<std::int64_t>(rng_.below(200)), Reg(15));
          break;
        default:
          b.mov(reg(), reg());
          break;
      }
    }
    if (allowSend && rng_.chance(0.7)) {
      // Broadcast one or two cells of current register soup.
      using vm::Reg;
      const std::uint64_t cells = 1 + rng_.below(2);
      b.constant(Reg(14), static_cast<std::int64_t>(cells));
      b.alloc(Reg(13), Reg(14));
      for (std::uint64_t c = 0; c < cells; ++c) {
        b.constant(Reg(14), static_cast<std::int64_t>(c));
        b.store(reg(), Reg(13), Reg(14));
      }
      b.constant(Reg(12), static_cast<std::int64_t>(rime::kBroadcastDst));
      b.constant(Reg(14), static_cast<std::int64_t>(cells));
      b.send(Reg(12), Reg(13), Reg(14));
    }
  }

  void emitBody(vm::IRBuilder& b, bool allowSend) {
    emitOps(b, 2 + static_cast<int>(rng_.below(4)), allowSend);
    // Up to two nested forward branches on (possibly symbolic) data.
    const int branches = static_cast<int>(rng_.below(3));
    std::vector<vm::IRBuilder::Label> joins;
    for (int i = 0; i < branches; ++i) {
      auto skip = b.newLabel();
      const vm::Reg cond = reg();
      // Quiet mode also guarantees the branch is *symbolic*: random
      // register soup almost never leaves symbolic data in the branch
      // register within the short differential horizons, and a battery
      // whose programs never fork never merges either.
      if (quietBranchArms_ && symbolics_ < 2) {
        const unsigned width = symbolicWidth();
        b.makeSymbolic(cond, symbolicLabel(width), width);
        ++symbolics_;
      }
      b.branchIfZero(cond, skip);
      emitOps(b, 1 + static_cast<int>(rng_.below(3)),
              allowSend && !quietBranchArms_,
              /*allowSymbolic=*/!quietBranchArms_);
      joins.push_back(skip);
    }
    for (auto it = joins.rbegin(); it != joins.rend(); ++it) {
      b.bind(*it);
      emitOps(b, 1, false);
    }
  }

  support::Rng rng_;
  bool quietBranchArms_ = false;
  int symbolics_ = 0;
};

}  // namespace sde
