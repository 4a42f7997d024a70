// Pre-decoded instruction streams for the interpreter's fused dispatch
// (DESIGN.md section 20).
//
// A Program is immutable after IRBuilder::finish(), so everything the
// per-instruction hot path re-derives from the raw Instr — bounds
// checks, operand validation, the decode switch itself — can be done
// once per program instead of once per executed instruction. The
// DecodedProgram is a 1:1 pc-indexed mirror of Program::code(): slot i
// holds the decoded form of instruction i, so `state.pc`, jump targets,
// call stacks, merge join points and checkpointed pcs keep their exact
// baseline meaning.
//
// Superinstructions: a slot whose instruction pair
// (i, i+1) matches a fusion rule gets a combined handler that executes
// both bodies back-to-back and skips to i+2. Slot i+1 always keeps its
// own standalone handler, so control entering at i+1 (jump target, call
// return, entry point) still executes it normally — fusion never needs
// a jump-target bitmap to stay safe. Fused handlers chain the exact
// switch-path op bodies (same expression-builder call sequence, same
// step accounting), which is what keeps digests and the interning log
// byte-identical across dispatch modes.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "expr/expr.hpp"
#include "vm/isa.hpp"
#include "vm/program.hpp"

namespace sde::vm {

enum class DispatchMode : std::uint8_t {
  kSwitch = 0,  // per-step decode switch: the reference interpreter
  kFused,       // pre-decoded stream + computed-goto dispatch +
                // superinstructions: the fast path (the default)
};

[[nodiscard]] std::string_view dispatchModeName(DispatchMode mode);
// Parses "switch" / "fused" (case-sensitive).
[[nodiscard]] bool parseDispatchMode(std::string_view text, DispatchMode& out);
// Process-wide default: SDE_DISPATCH=switch|fused, else (unset or any
// other value) kFused. Read once and cached — the toggle is a process
// property.
[[nodiscard]] DispatchMode dispatchModeFromEnv();
// SDE_OPCODE_TIME=1: per-opcode self-time + adjacent-pair histogram
// (forces the switch executor; see InterpConfig::opcodeTiming).
[[nodiscard]] bool opcodeTimingFromEnv();

// Handler index space: plain opcodes first (index == raw Op value), then
// the superinstructions. The executor's label table is indexed by this.
enum Handler : std::uint16_t {
  kHandlerFirstFused = static_cast<std::uint16_t>(kNumOps),
  kHandlerAluBr = kHandlerFirstFused,  // binary ALU (usually a compare) ; br
  kHandlerConstAlu,                    // const scratch ; binary ALU
  kHandlerLoadGBr,                     // loadg ; br
  kHandlerConstStoreG,                 // const ; storeg
  kHandlerMovBr,                       // mov ; br
  // Sentinel slot appended after the last instruction: running off the
  // end of the program asserts, matching the baseline Program::at().
  kHandlerOutOfRange,
  kNumHandlers,
};

// The fusion rule table: the combined handler for (first, second), or 0
// when the pair does not fuse. Exposed so the selection is auditable
// against the per-opcode pair histogram (EXPERIMENTS.md E23).
[[nodiscard]] std::uint16_t fusedHandlerFor(Op first, Op second);
[[nodiscard]] std::string_view handlerName(std::uint16_t handler);

struct DecodedInstr {
  std::int64_t imm = 0;
  std::int64_t imm2 = 0;
  // kConst slots: the interned constant, filled on FIRST execution (not
  // at decode time — decode-time interning would shift the interning-log
  // order against the switch baseline and break checkpoint byte
  // equality). nullptr until then.
  mutable expr::Ref constCache = nullptr;
  std::uint16_t handler = 0;
  Op op = Op::kNop;  // original opcode (profiler attribution, asserts)
  std::uint8_t a = 0;
  std::uint8_t b = 0;
  std::uint8_t c = 0;
  std::uint32_t str = 0;
};

class DecodedProgram {
 public:
  // Decodes and validates `program` and fuses its superinstructions.
  // Validation (register indices, jump targets, symbolic widths) happens
  // here once, replacing the per-fetch checks of Program::at().
  explicit DecodedProgram(const Program& program);

  [[nodiscard]] const DecodedInstr* code() const { return code_.data(); }
  [[nodiscard]] std::size_t size() const { return code_.size(); }
  [[nodiscard]] std::size_t fusedSlots() const { return fusedSlots_; }

 private:
  std::vector<DecodedInstr> code_;
  std::size_t fusedSlots_ = 0;
};

}  // namespace sde::vm
