// E17 — fork-cost microbenchmarks (google-benchmark): how much work a
// single ExecutionState::fork does as the state's append-only histories
// grow. The `copied_elems` counter (ExecutionState::forkCopyCost, the
// sequence tails a fork copies) is the payload-copy cost the structural
// sharing keeps O(1): flat in history size, while `shared_chunks`
// (forkSharedChunks) grows with it.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "vm/builder.hpp"
#include "vm/state.hpp"

namespace {

using namespace sde;

vm::Program noopProgram() {
  vm::IRBuilder b("noop");
  b.setGlobals(2);
  b.beginEntry(vm::Entry::kInit);
  b.halt();
  return b.finish();
}

// A state whose every chunked history holds `records` entries — the
// shape a long-lived state has after thousands of events.
vm::ExecutionState grownState(expr::Context& ctx, const vm::Program& program,
                              std::uint64_t records) {
  vm::ExecutionState state(1, 1, program);
  state.space.initGlobals(ctx, 2);
  for (std::uint64_t i = 0; i < records; ++i) {
    state.constraints.add(
        ctx.ult(ctx.variable("v", 32), ctx.constant(i + 1, 32)));
    state.commLog.push_back({(i & 1) == 0, 2, i, i * 31, i});
    state.decisions.push_back({ctx.variable("d", 1), (i & 1) == 0});
    state.symbolics.push_back(ctx.variable("s" + std::to_string(i), 8));
  }
  return state;
}

void BM_Fork(benchmark::State& state) {
  const auto records = static_cast<std::uint64_t>(state.range(0));
  expr::Context ctx;
  const vm::Program program = noopProgram();
  vm::ExecutionState original = grownState(ctx, program, records);

  vm::StateId next = 100;
  for (auto _ : state) {
    auto clone = original.fork(next++);
    benchmark::DoNotOptimize(clone->configHash());
  }

  state.counters["copied_elems"] =
      static_cast<double>(original.forkCopyCost());
  state.counters["shared_chunks"] =
      static_cast<double>(original.forkSharedChunks());
}

}  // namespace

BENCHMARK(BM_Fork)->Arg(64)->Arg(512)->Arg(4096)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
