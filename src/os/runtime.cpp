#include "os/runtime.hpp"

namespace sde::os {

void setupBoot(expr::Context& ctx, vm::ExecutionState& state,
               std::uint64_t bootTime) {
  state.space.initGlobals(ctx, state.program().globalsSize());
  vm::PendingEvent boot;
  boot.time = bootTime;
  boot.kind = vm::EventKind::kBoot;
  boot.seq = state.nextEventSeq++;
  state.pendingEvents.push_back(std::move(boot));
}

void reboot(expr::Context& ctx, vm::ExecutionState& state, std::uint64_t now) {
  const std::uint64_t globals = state.space.objectSize(vm::kGlobalsObject);
  for (std::uint64_t i = 0; i < globals; ++i)
    state.space.store(vm::kGlobalsObject, i, ctx.constant(0, 64));
  state.pendingEvents.clear();
  if (!state.cold().activeTimers.empty())
    state.mutableCold().activeTimers.clear();
  vm::PendingEvent boot;
  boot.time = now;
  boot.kind = vm::EventKind::kBoot;
  boot.seq = state.nextEventSeq++;
  state.pendingEvents.push_back(std::move(boot));
}

}  // namespace sde::os
