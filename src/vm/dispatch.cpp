#include "vm/dispatch.hpp"

#include <cstdlib>

namespace sde::vm {

std::string_view dispatchModeName(DispatchMode mode) {
  switch (mode) {
    case DispatchMode::kSwitch:
      return "switch";
    case DispatchMode::kFused:
      return "fused";
  }
  return "?";
}

bool parseDispatchMode(std::string_view text, DispatchMode& out) {
  if (text == "switch") {
    out = DispatchMode::kSwitch;
    return true;
  }
  if (text == "fused") {
    out = DispatchMode::kFused;
    return true;
  }
  return false;
}

DispatchMode dispatchModeFromEnv() {
  static const DispatchMode cached = [] {
    if (const char* named = std::getenv("SDE_DISPATCH")) {
      DispatchMode mode{};
      if (parseDispatchMode(named, mode)) return mode;
    }
    return DispatchMode::kFused;
  }();
  return cached;
}

bool opcodeTimingFromEnv() {
  static const bool cached = [] {
    const char* v = std::getenv("SDE_OPCODE_TIME");
    return v != nullptr && std::atoi(v) != 0;
  }();
  return cached;
}

std::uint16_t fusedHandlerFor(Op first, Op second) {
  // Selection is data-driven: these are the dominant adjacent pairs in
  // the SDE_OPCODE_TIME pair histogram over the rime workloads (see
  // EXPERIMENTS.md E23). Structural constraints: the first op must fall
  // through unconditionally (no control flow, no suspension point, no
  // sink callback), so only straight-line producers fuse.
  if (isBinaryAlu(first) && second == Op::kBr) return kHandlerAluBr;
  if (first == Op::kConst && isBinaryAlu(second)) return kHandlerConstAlu;
  if (first == Op::kLoadG && second == Op::kBr) return kHandlerLoadGBr;
  if (first == Op::kConst && second == Op::kStoreG) return kHandlerConstStoreG;
  if (first == Op::kMov && second == Op::kBr) return kHandlerMovBr;
  return 0;
}

std::string_view handlerName(std::uint16_t handler) {
  if (handler < kNumOps) return opName(static_cast<Op>(handler));
  switch (handler) {
    case kHandlerAluBr:
      return "alu+br";
    case kHandlerConstAlu:
      return "const+alu";
    case kHandlerLoadGBr:
      return "loadg+br";
    case kHandlerConstStoreG:
      return "const+storeg";
    case kHandlerMovBr:
      return "mov+br";
    default:
      return "?";
  }
}

namespace {

void validateInstr(const Program& program, std::size_t pc, const Instr& ins) {
  const std::size_t size = program.size();
  const auto validReg = [](std::uint8_t r) { return r < kNumRegisters; };
  const auto validTarget = [size](std::int64_t t) {
    return t >= 0 && static_cast<std::size_t>(t) < size;
  };
  (void)pc;
  switch (ins.op) {
    case Op::kJmp:
      SDE_ASSERT(validTarget(ins.imm), "jump target out of range");
      break;
    case Op::kBr:
      SDE_ASSERT(validReg(ins.a), "register out of range");
      SDE_ASSERT(validTarget(ins.imm) && validTarget(ins.imm2),
                 "branch target out of range");
      break;
    case Op::kCall:
      // The return pc (pc+1) is NOT validated here: a trailing call
      // whose callee never returns is legal, and the sentinel slot
      // asserts at runtime exactly like the baseline fetch would.
      SDE_ASSERT(validTarget(ins.imm), "call target out of range");
      break;
    case Op::kSymbolic:
      SDE_ASSERT(validReg(ins.a), "register out of range");
      SDE_ASSERT(ins.imm >= 1 && ins.imm <= 64, "symbolic width out of range");
      break;
    case Op::kNop:
    case Op::kRet:
    case Op::kHalt:
    case Op::kFail:
    case Op::kStopTimer:
      break;
    default:
      // Every remaining op names up to three registers; unused fields
      // are zero-initialised by IRBuilder, so checking all three is both
      // safe and exhaustive.
      SDE_ASSERT(validReg(ins.a) && validReg(ins.b) && validReg(ins.c),
                 "register out of range");
      break;
  }
}

}  // namespace

DecodedProgram::DecodedProgram(const Program& program) {
  const std::size_t size = program.size();
  code_.resize(size + 1);
  for (std::size_t pc = 0; pc < size; ++pc) {
    const Instr& ins = program.at(pc);
    validateInstr(program, pc, ins);
    DecodedInstr& d = code_[pc];
    d.op = ins.op;
    d.handler = static_cast<std::uint16_t>(ins.op);
    d.a = ins.a;
    d.b = ins.b;
    d.c = ins.c;
    d.imm = ins.imm;
    d.imm2 = ins.imm2;
    d.str = ins.str;
  }
  for (std::size_t pc = 0; pc + 1 < size; ++pc) {
    const std::uint16_t fused = fusedHandlerFor(code_[pc].op, code_[pc + 1].op);
    if (fused != 0) {
      code_[pc].handler = fused;
      ++fusedSlots_;
    }
  }
  // Sentinel: running off the end of the program is a bug in the node
  // program; the baseline Program::at() asserts, so does this handler.
  code_[size].op = Op::kNop;
  code_[size].handler = kHandlerOutOfRange;
}

}  // namespace sde::vm
