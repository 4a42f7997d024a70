// E23 — VM hot-path microbenchmarks: dispatch strategy A/B and arena
// interning vs per-node heap allocation, isolated from the SDE layer.
//
// Two workloads exercise the interpreter through Interpreter::runEvent
// with a minimal effect sink and fully concrete data (no forks, no
// solver time), so the measured delta is dispatch + interning cost:
//
//   alu_loop     const/ALU-heavy checksum loop — the const+alu and
//                alu+br superinstruction shapes
//   global_walk  globals-segment walk — loadg/storeg traffic plus the
//                loadg+br / const+storeg shapes
//
// Each workload runs under every DispatchMode; the arena benchmark
// interns a fresh-node-heavy expression stream into a default Context
// (256 KiB arena blocks) and into a Context(1) whose degenerate blocks
// make every node an individual allocation — the pre-arena layout.
//
// Outputs (schema-driven, trace/csv.hpp):
//   <outdir>/vm_dispatch.csv   workload,dispatch,events,instructions,
//                              wall_s,ns_per_instr
//   <outdir>/vm_arena.csv      mode,nodes,build_s,reintern_s,
//                              ns_per_node,bytes_allocated,
//                              bytes_reserved,blocks
//
// Usage: bench_vm [--outdir DIR] [--events N] [--arena-nodes N]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "solver/solver.hpp"
#include "trace/csv.hpp"
#include "trace/table.hpp"
#include "vm/builder.hpp"
#include "vm/interp.hpp"

namespace {

using namespace sde;

constexpr const char* kUsage =
    "bench_vm [--outdir DIR] [--events N] [--arena-nodes N]";

struct Options {
  std::string outdir = "bench_results";
  std::uint64_t events = 400;       // handler dispatches per measurement
  std::uint64_t arenaNodes = 500'000;  // fresh nodes per arena run
};

Options parseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&] {
      return bench::flagNumber(argc, argv, i, kUsage);
    };
    const auto text = [&] {
      return bench::flagValue(argc, argv, i, kUsage);
    };
    if (arg == "--outdir")
      options.outdir = text();
    else if (arg == "--events")
      options.events = next();
    else if (arg == "--arena-nodes")
      options.arenaNodes = next();
    else
      bench::usageError(kUsage, arg.c_str());
  }
  return options;
}

double seconds(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Minimal effect sink: the workloads are concrete, so a fork would be a
// workload bug; sends/logs are counted and dropped.
class NullSink final : public vm::EffectSink {
 public:
  vm::ExecutionState& forkState(vm::ExecutionState& original) override {
    (void)original;
    SDE_ASSERT(false, "bench workloads must not fork");
    std::abort();
  }
  void onSend(vm::ExecutionState&, vm::NodeId,
              std::vector<expr::Ref>) override {
    ++sends;
  }
  std::uint64_t sends = 0;
};

// Checksum loop: tight const/ALU/branch kernel, ~6 instructions per
// iteration, dominated by the const+alu and (cmp)+br pair shapes.
vm::Program buildAluLoop(std::uint64_t iterations) {
  using vm::Op;
  using vm::Reg;
  vm::IRBuilder b("bench_alu_loop");
  b.setGlobals(1);
  b.beginEntry(vm::Entry::kTimer);
  const Reg counter(1), acc(2), scratch(3);
  b.constant(counter, static_cast<std::int64_t>(iterations));
  b.constant(acc, 0x9e3779b9);
  auto loop = b.newLabel();
  b.bind(loop);
  b.aluImm(Op::kMul, acc, acc, 6364136223846793005, scratch);
  b.aluImm(Op::kAdd, acc, acc, 1442695040888963407, scratch);
  b.aluImm(Op::kLShr, scratch, acc, 17, scratch);
  b.alu(Op::kXor, acc, acc, scratch);
  b.aluImm(Op::kSub, counter, counter, 1, scratch);
  b.branchIfNonZero(counter, loop);
  b.storeGlobal(acc, 0);
  b.ret();
  return b.finish();
}

// Globals walk: load/modify/store over the globals segment, exercising
// loadg/storeg and the loadg+br / const+storeg pair shapes.
vm::Program buildGlobalWalk(std::uint64_t iterations) {
  using vm::Op;
  using vm::Reg;
  vm::IRBuilder b("bench_global_walk");
  constexpr std::uint64_t kCells = 16;
  b.setGlobals(kCells);
  b.beginEntry(vm::Entry::kTimer);
  const Reg counter(1), value(2), scratch(3);
  b.constant(counter, static_cast<std::int64_t>(iterations));
  auto loop = b.newLabel();
  b.bind(loop);
  for (std::uint64_t cell = 0; cell + 1 < kCells; cell += 2) {
    b.loadGlobal(value, cell);
    b.aluImm(Op::kAdd, value, value, static_cast<std::int64_t>(cell + 1),
             scratch);
    b.storeGlobal(value, cell + 1);
  }
  b.aluImm(Op::kSub, counter, counter, 1, scratch);
  b.branchIfNonZero(counter, loop);
  b.ret();
  return b.finish();
}

struct DispatchRow {
  std::string workload;
  std::string dispatch;
  std::uint64_t events = 0;
  std::uint64_t instructions = 0;
  double wallSeconds = 0;
  double nsPerInstr = 0;
};

std::span<const trace::CsvColumn<DispatchRow>> dispatchCsvSchema() {
  static constexpr trace::CsvColumn<DispatchRow> kSchema[] = {
      {"workload",
       [](std::ostream& os, const DispatchRow& r) { os << r.workload; }},
      {"dispatch",
       [](std::ostream& os, const DispatchRow& r) { os << r.dispatch; }},
      {"events", [](std::ostream& os, const DispatchRow& r) { os << r.events; }},
      {"instructions",
       [](std::ostream& os, const DispatchRow& r) { os << r.instructions; }},
      {"wall_s",
       [](std::ostream& os, const DispatchRow& r) { os << r.wallSeconds; }},
      {"ns_per_instr",
       [](std::ostream& os, const DispatchRow& r) { os << r.nsPerInstr; }},
  };
  return kSchema;
}

DispatchRow runDispatch(const std::string& workload, const vm::Program& program,
                        vm::DispatchMode mode, std::uint64_t events) {
  expr::Context ctx;
  solver::Solver solver(ctx);
  vm::InterpConfig config;
  config.dispatch = mode;
  config.opcodeTiming = false;
  config.maxStepsPerEvent = 1ull << 30;
  vm::Interpreter interp(ctx, solver, config);
  interp.setNumNodes(1);

  vm::ExecutionState state(0, 0, program);
  state.space.initGlobals(ctx, program.globalsSize());
  NullSink sink;
  const std::vector<expr::Ref> args{ctx.constant(0, 64)};

  // Warm-up dispatch (decodes the program, interns the constants) so the
  // measurement sees steady state.
  interp.runEvent(state, vm::Entry::kTimer, args, sink);

  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < events; ++i)
    interp.runEvent(state, vm::Entry::kTimer, args, sink);
  const auto t1 = std::chrono::steady_clock::now();

  DispatchRow row;
  row.workload = workload;
  row.dispatch = std::string(vm::dispatchModeName(mode));
  row.events = events;
  row.instructions = interp.stats().get("vm.instructions");
  row.wallSeconds = seconds(t0, t1);
  row.nsPerInstr = row.instructions == 0
                       ? 0
                       : row.wallSeconds * 1e9 /
                             static_cast<double>(row.instructions);
  return row;
}

struct ArenaRow {
  std::string mode;
  std::uint64_t nodes = 0;
  double buildSeconds = 0;
  double reinternSeconds = 0;
  double nsPerNode = 0;
  std::uint64_t bytesAllocated = 0;
  std::uint64_t bytesReserved = 0;
  std::uint64_t blocks = 0;
};

std::span<const trace::CsvColumn<ArenaRow>> arenaCsvSchema() {
  static constexpr trace::CsvColumn<ArenaRow> kSchema[] = {
      {"mode", [](std::ostream& os, const ArenaRow& r) { os << r.mode; }},
      {"nodes", [](std::ostream& os, const ArenaRow& r) { os << r.nodes; }},
      {"build_s",
       [](std::ostream& os, const ArenaRow& r) { os << r.buildSeconds; }},
      {"reintern_s",
       [](std::ostream& os, const ArenaRow& r) { os << r.reinternSeconds; }},
      {"ns_per_node",
       [](std::ostream& os, const ArenaRow& r) { os << r.nsPerNode; }},
      {"bytes_allocated",
       [](std::ostream& os, const ArenaRow& r) { os << r.bytesAllocated; }},
      {"bytes_reserved",
       [](std::ostream& os, const ArenaRow& r) { os << r.bytesReserved; }},
      {"blocks", [](std::ostream& os, const ArenaRow& r) { os << r.blocks; }},
  };
  return kSchema;
}

// Interns a fresh-node-heavy stream: a xor-fold over distinct constants,
// the shape a long symbolic execution produces (every step a handful of
// new nodes, old nodes stay live).
void internStream(expr::Context& ctx, std::uint64_t nodes) {
  expr::Ref acc = ctx.constant(1, 64);
  // Each iteration interns ~2 fresh nodes (a constant and a xor).
  const std::uint64_t iterations = nodes / 2;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    const expr::Ref c = ctx.constant(i * 0x9e3779b97f4a7c15ull + 1, 64);
    acc = ctx.bvXor(acc, c);
  }
}

ArenaRow runArena(const std::string& mode, std::size_t blockBytes,
                  std::uint64_t nodes) {
  expr::Context ctx(blockBytes);
  const auto t0 = std::chrono::steady_clock::now();
  internStream(ctx, nodes);
  const auto t1 = std::chrono::steady_clock::now();
  // Second pass: every intern is a hit — lookup speed over the same
  // node population and layout.
  internStream(ctx, nodes);
  const auto t2 = std::chrono::steady_clock::now();

  ArenaRow row;
  row.mode = mode;
  row.nodes = ctx.numNodes();
  row.buildSeconds = seconds(t0, t1);
  row.reinternSeconds = seconds(t1, t2);
  row.nsPerNode = row.nodes == 0 ? 0
                                 : row.buildSeconds * 1e9 /
                                       static_cast<double>(row.nodes);
  row.bytesAllocated = ctx.arenaBytesAllocated();
  row.bytesReserved = ctx.arenaBytesReserved();
  row.blocks = ctx.arenaBlocks();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parseArgs(argc, argv);
  std::filesystem::create_directories(options.outdir);

  constexpr std::uint64_t kIterationsPerEvent = 20'000;
  const struct {
    const char* name;
    vm::Program program;
  } workloads[] = {
      {"alu_loop", buildAluLoop(kIterationsPerEvent)},
      {"global_walk", buildGlobalWalk(kIterationsPerEvent)},
  };

  std::printf("=== VM dispatch microbench (%llu events/workload) ===\n",
              static_cast<unsigned long long>(options.events));
  trace::TextTable dispatchTable(
      {"Workload", "Dispatch", "Instructions", "Wall", "ns/instr", "Speedup"});
  std::vector<DispatchRow> dispatchRows;
  for (const auto& workload : workloads) {
    double switchNs = 0;
    for (const vm::DispatchMode mode :
         {vm::DispatchMode::kSwitch, vm::DispatchMode::kFused}) {
      const DispatchRow row =
          runDispatch(workload.name, workload.program, mode, options.events);
      if (mode == vm::DispatchMode::kSwitch) switchNs = row.nsPerInstr;
      char wall[32], ns[32], speedup[32];
      std::snprintf(wall, sizeof(wall), "%.3f s", row.wallSeconds);
      std::snprintf(ns, sizeof(ns), "%.2f", row.nsPerInstr);
      std::snprintf(speedup, sizeof(speedup), "%.2fx",
                    row.nsPerInstr == 0 ? 0 : switchNs / row.nsPerInstr);
      dispatchTable.addRow({workload.name, std::string(row.dispatch),
                            std::to_string(row.instructions), wall, ns,
                            speedup});
      dispatchRows.push_back(row);
    }
  }
  std::fputs(dispatchTable.render().c_str(), stdout);

  const std::string dispatchPath = options.outdir + "/vm_dispatch.csv";
  {
    std::ofstream os(dispatchPath);
    trace::CsvWriter<DispatchRow> csv(os, dispatchCsvSchema());
    for (const DispatchRow& row : dispatchRows) csv.row(row);
  }
  std::printf("[csv] %s\n\n", dispatchPath.c_str());

  std::printf("=== Expression interning: arena vs per-node heap (%llu nodes) "
              "===\n",
              static_cast<unsigned long long>(options.arenaNodes));
  trace::TextTable arenaTable({"Mode", "Nodes", "Build", "Re-intern",
                               "ns/node", "Reserved", "Blocks"});
  std::vector<ArenaRow> arenaRows;
  for (const auto& [mode, blockBytes] :
       {std::pair<const char*, std::size_t>{"arena",
                                            support::Arena::kDefaultBlockBytes},
        std::pair<const char*, std::size_t>{"heap", 1}}) {
    const ArenaRow row = runArena(mode, blockBytes, options.arenaNodes);
    char build[32], rehit[32], ns[32];
    std::snprintf(build, sizeof(build), "%.3f s", row.buildSeconds);
    std::snprintf(rehit, sizeof(rehit), "%.3f s", row.reinternSeconds);
    std::snprintf(ns, sizeof(ns), "%.1f", row.nsPerNode);
    arenaTable.addRow({row.mode, std::to_string(row.nodes), build, rehit, ns,
                       std::to_string(row.bytesReserved),
                       std::to_string(row.blocks)});
    arenaRows.push_back(row);
  }
  std::fputs(arenaTable.render().c_str(), stdout);

  const std::string arenaPath = options.outdir + "/vm_arena.csv";
  {
    std::ofstream os(arenaPath);
    trace::CsvWriter<ArenaRow> csv(os, arenaCsvSchema());
    for (const ArenaRow& row : arenaRows) csv.row(row);
  }
  std::printf("[csv] %s\n", arenaPath.c_str());
  return 0;
}
