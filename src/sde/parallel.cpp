#include "sde/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <new>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "obs/trace_io.hpp"
#include "obs/trace_merge.hpp"
#include "sde/explode.hpp"
#include "sde/testcase.hpp"
#include "snapshot/manifest.hpp"
#include "snapshot/shared_cache_io.hpp"
#include "support/hash.hpp"
#include "support/logging.hpp"
#include "support/placed_threads.hpp"
#include "vm/merge.hpp"

namespace sde {

namespace {

// Placeholder test case of a dscenario whose joint constraints have no
// model (or whose model search ran out of budget).
constexpr std::string_view kUnsatisfiableScenario = "<unsatisfiable scenario>";

// The one test-case renderer. A member's block is its node line and one
// line per symbolic input; a dscenario renders as its members' blocks in
// node order, on the per-member and the per-scenario path alike.
std::string renderTestCase(const TestCase& testCase) {
  std::ostringstream os;
  os << "node " << testCase.node;
  if (!testCase.failureMessage.empty())
    os << " FAILURE: " << testCase.failureMessage;
  os << "\n";
  for (const TestCaseInput& input : testCase.inputs)
    os << "  " << input.name << " (w" << input.width << ") = " << input.value
       << "\n";
  return os.str();
}

std::string renderScenarioCases(const std::vector<TestCase>& cases) {
  std::string rendered;
  for (const TestCase& testCase : cases) rendered += renderTestCase(testCase);
  return rendered;
}

// What extraction needs of one member state, computed at most once per
// job however many dscenarios and groups the state belongs to.
class MemberMemo {
 public:
  explicit MemberMemo(ExecutionState* state)
      : state_(state), mix_(scenarioMemberMix(*state)) {}

  [[nodiscard]] ExecutionState* state() const { return state_; }
  [[nodiscard]] std::uint64_t mix() const { return mix_; }

  // The variables the member's path constraints mention.
  const std::vector<expr::Ref>& variables(const expr::Context& ctx) {
    if (!variables_) variables_ = state_->constraints.variables(ctx);
    return *variables_;
  }

  // The member's rendered test case, solved on first use; nullopt when
  // its constraints have no model.
  const std::optional<std::string>& block(solver::SolverClient& solver) {
    if (!solved_) {
      if (const auto testCase = generateTestCase(solver, *state_))
        block_ = renderTestCase(*testCase);
      solved_ = true;
    }
    return block_;
  }

 private:
  ExecutionState* state_;
  std::uint64_t mix_;
  std::optional<std::vector<expr::Ref>> variables_;
  bool solved_ = false;
  std::optional<std::string> block_;
};

using GroupMembers = std::vector<std::vector<MemberMemo*>>;  // by node

// Is every dscenario's test case the concatenation of its members' own?
// Yes when no variable is constrained under two nodes, no node's
// symbolic input is constrained under another node and no member carries
// merge guards: the union of one pick per node then splits into exactly
// the members' own constraint components, in member order, and every
// input takes its value from its own member's components.
bool decomposable(const GroupMembers& group, const expr::Context& ctx) {
  std::unordered_map<expr::Ref, NodeId> constrainedUnder;
  for (NodeId node = 0; node < group.size(); ++node) {
    for (MemberMemo* member : group[node]) {
      if (!member->state()->mergeGuards.empty()) return false;
      for (const expr::Ref var : member->variables(ctx)) {
        const auto [it, fresh] = constrainedUnder.try_emplace(var, node);
        if (!fresh && it->second != node) return false;
      }
    }
  }
  for (NodeId node = 0; node < group.size(); ++node) {
    for (const MemberMemo* member : group[node]) {
      for (const expr::Ref input : member->state()->symbolics) {
        const auto it = constrainedUnder.find(input);
        if (it != constrainedUnder.end() && it->second != node) return false;
      }
    }
  }
  return true;
}

template <typename T>
void sortDistinct(std::vector<T>& values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
}

// Folds the sorted-distinct `from` into the sorted-distinct `into`.
template <typename T>
void unionInto(std::vector<T>& into, const std::vector<T>& from) {
  std::vector<T> merged;
  merged.reserve(into.size() + from.size());
  std::set_union(std::make_move_iterator(into.begin()),
                 std::make_move_iterator(into.end()), from.begin(), from.end(),
                 std::back_inserter(merged));
  into = std::move(merged);
}

}  // namespace

JobResult collectJobResult(Engine& engine, const PartitionJob& job,
                           const RunConfig& config, RunOutcome outcome) {
  JobResult result;
  result.jobId = job.id;
  result.outcome = outcome;
  result.states = engine.numStates();
  result.events = engine.eventsProcessed();
  result.groups = engine.mapper().numGroups();
  result.memoryBytes = engine.simulatedMemoryBytes();
  result.scenariosRepresented = countScenarios(engine.mapper());
  result.wallSeconds = engine.wallSeconds();

  // Ownership rule: paths that never reached a partition variable are
  // explored by several jobs (every job agreeing on the variables they
  // did decide). The canonical owner is the job forcing all remaining
  // variables to false, i.e. a job owns a dscenario iff each of its
  // forced-TRUE variables was actually decided on some member's path.
  //
  // The rule factorises per node: decision names are node-scoped
  // ("n<node>.<label>.<k>", minted by the engine from state.node()), so
  // a forced variable of node X can only appear in the decision log of
  // the dscenario's member FOR node X. Filtering each node's choice
  // list down to the states that decided the node's forced variables
  // therefore yields exactly the owned sub-product — counting is pure
  // arithmetic and enumeration only ever visits owned dscenarios.
  std::unordered_map<NodeId, std::vector<std::string_view>> forcedByNode;
  bool unreachableVariable = false;
  for (const auto& [name, value] : job.forced) {
    if (!value) continue;
    NodeId node = 0;
    std::size_t pos = 1;
    if (name.size() < 2 || name[0] != 'n' || !std::isdigit(name[1])) {
      unreachableVariable = true;  // not an engine decision name: no
      break;                       // path can ever decide it
    }
    while (pos < name.size() && std::isdigit(name[pos]))
      node = node * 10 + static_cast<NodeId>(name[pos++] - '0');
    forcedByNode[node].emplace_back(name);
  }

  std::vector<std::uint64_t> scenarioPrints;
  std::vector<std::string> testcases;
  if (!unreachableVariable) {
    // Decision logs are short; memoise the containment test per state
    // (states are shared across many groups under COW/SDS).
    std::unordered_map<const ExecutionState*, bool> satisfiesCache;
    const auto satisfies = [&](const ExecutionState* state,
                               const std::vector<std::string_view>& vars) {
      const auto [it, fresh] = satisfiesCache.try_emplace(state, false);
      if (fresh) {
        it->second = std::all_of(
            vars.begin(), vars.end(), [&](std::string_view name) {
              for (const auto& decision : state->decisions)
                if (decision.var->name() == name) return true;
              return false;
            });
      }
      return it->second;
    };
    std::unordered_map<const ExecutionState*, MemberMemo> memos;
    const auto memoOf = [&](ExecutionState* state) {
      return &memos.try_emplace(state, state).first->second;
    };

    for (const auto& group : engine.mapper().groupChoices()) {
      GroupMembers owned(group.size());
      std::uint64_t product = 1;
      for (NodeId node = 0; node < group.size(); ++node) {
        const auto forcedIt = forcedByNode.find(node);
        for (ExecutionState* state : group[node])
          if (forcedIt == forcedByNode.end() ||
              satisfies(state, forcedIt->second))
            owned[node].push_back(memoOf(state));
        product *= owned[node].size();
      }
      result.scenariosOwned += product;
      if (product == 0 ||
          (!config.collectScenarioFingerprints && !config.collectTestcases))
        continue;
      // A decomposable group's test cases come from the member memos:
      // every query the per-scenario path would add is an exact-cache
      // hit of a member solved before (DESIGN.md §11).
      const bool perMember =
          config.collectTestcases && decomposable(owned, engine.context());

      // Node-major odometer over the owned sub-product.
      std::vector<std::size_t> odometer(owned.size(), 0);
      std::vector<ExecutionState*> scenario(owned.size());
      bool exhausted = false;
      while (!exhausted) {
        std::uint64_t print = 0;
        for (std::size_t node = 0; node < owned.size(); ++node) {
          MemberMemo* member = owned[node][odometer[node]];
          print ^= member->mix();
          scenario[node] = member->state();
        }
        if (config.collectScenarioFingerprints) scenarioPrints.push_back(print);
        if (perMember) {
          // Members are solved in node order up to the first one without
          // a model, where getModel over the union stops too. The test
          // case is sized once, then filled from the memos.
          std::size_t solved = 0;
          std::size_t length = 0;
          for (; solved < owned.size(); ++solved) {
            const auto& block = owned[solved][odometer[solved]]->block(
                engine.solver());
            if (!block) break;
            length += block->size();
          }
          std::string testcase;
          if (solved == owned.size()) {
            testcase.reserve(length);
            for (std::size_t node = 0; node < owned.size(); ++node)
              testcase += *owned[node][odometer[node]]->block(engine.solver());
          } else {
            testcase = kUnsatisfiableScenario;
          }
          testcases.push_back(std::move(testcase));
        } else if (config.collectTestcases) {
          for (std::string& testcase : expandedScenarioTestcases(
                   engine.context(), engine.solver(), scenario))
            testcases.push_back(std::move(testcase));
        }
        std::size_t digit = odometer.size();
        while (true) {
          if (digit == 0) {
            exhausted = true;
            break;
          }
          --digit;
          if (++odometer[digit] < owned[digit].size()) break;
          odometer[digit] = 0;
        }
      }
    }
  }
  sortDistinct(scenarioPrints);
  sortDistinct(testcases);
  result.scenarioFingerprints = std::move(scenarioPrints);
  result.testcases = std::move(testcases);

  if (config.collectStateFingerprints) {
    for (const auto& state : engine.states())
      result.stateFingerprints.push_back(state->configHash());
    sortDistinct(result.stateFingerprints);
  }

  engine.mergeStatsInto(result.stats);
  return result;
}

std::string jobTracePath(const std::string& traceDir, std::uint32_t jobId) {
  return (std::filesystem::path(traceDir) /
          ("trace_job" + std::to_string(jobId) + ".trc"))
      .string();
}

void foldJobResult(ParallelResult& result, const JobResult& job) {
  result.totalStates += job.states;
  result.totalEvents += job.events;
  result.totalScenariosOwned += job.scenariosOwned;
  // Each job's vectors are sorted distinct, so the unions are linear
  // merges.
  unionInto(result.scenarioFingerprints, job.scenarioFingerprints);
  unionInto(result.stateFingerprints, job.stateFingerprints);
  unionInto(result.testcases, job.testcases);
  result.stats.mergeFrom(job.stats);
}

void sealParallelResult(ParallelResult& result, const PartitionPlan& plan,
                        const RunConfig& config) {
  namespace fs = std::filesystem;
  if (result.outcome == RunOutcome::kCompleted) {
    const auto unfinished = std::find_if(
        result.jobs.begin(), result.jobs.end(), [](const JobResult& job) {
          return job.outcome != RunOutcome::kCompleted;
        });
    if (unfinished != result.jobs.end()) result.outcome = unfinished->outcome;
  }
  // Trace merge, after the barrier and in job-id order (the input order
  // is the merge tie-break, so it must not depend on completion order).
  // Jobs loaded from .done files on a resume did not run here and have
  // no trace file; they are simply absent from the merge.
  if (!config.traceDir.empty()) {
    std::vector<std::string> inputs;
    for (const PartitionJob& job : plan.jobs) {
      const std::string path = jobTracePath(config.traceDir, job.id);
      if (fs::exists(path)) inputs.push_back(path);
    }
    try {
      obs::mergeTraceFiles(
          inputs, (fs::path(config.traceDir) / "merged.trc").string());
    } catch (const obs::TraceError& e) {
      support::logError("trace", e.what());
    }
  }
}

void finalizeParallelResult(ParallelResult& result, const PartitionPlan& plan,
                            const RunConfig& config) {
  for (const JobResult& job : result.jobs) foldJobResult(result, job);
  sealParallelResult(result, plan, config);
}

PartitionPlan planPartitions(std::span<const std::string> variables,
                             std::uint64_t seed) {
  SDE_ASSERT(variables.size() <= 16,
             "2^B jobs: refusing more than 16 partition variables");
  PartitionPlan plan;
  plan.variables.assign(variables.begin(), variables.end());
  const std::uint32_t numJobs = 1u << variables.size();
  plan.jobs.reserve(numJobs);
  for (std::uint32_t id = 0; id < numJobs; ++id) {
    PartitionJob job;
    job.id = id;
    support::Hasher h;
    h.u64(seed).u64(id);
    for (const std::string& name : plan.variables) h.str(name);
    job.seed = h.digest();
    job.forced.reserve(variables.size());
    for (std::size_t bit = 0; bit < variables.size(); ++bit)
      job.forced.emplace_back(plan.variables[bit], (id >> bit & 1u) != 0);
    plan.jobs.push_back(std::move(job));
  }
  return plan;
}

std::string canonicalScenarioTestcase(
    solver::SolverClient& solver, std::span<ExecutionState* const> scenario) {
  const auto cases = generateScenarioTestCases(solver, scenario);
  if (!cases) return std::string(kUnsatisfiableScenario);
  return renderScenarioCases(*cases);
}

std::vector<std::string> expandedScenarioTestcases(
    expr::Context& ctx, solver::SolverClient& solver,
    std::span<ExecutionState* const> scenario) {
  vm::MergeExpansion expansion(ctx);
  for (const ExecutionState* member : scenario) expansion.addState(*member);
  const std::vector<expr::Ref>& guards = expansion.guards();
  if (guards.empty()) return {canonicalScenarioTestcase(solver, scenario)};
  SDE_ASSERT(guards.size() < 24, "merge-guard expansion too wide");

  std::vector<std::string> result;
  std::vector<bool> assignment(guards.size());
  std::vector<expr::Ref> items;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << guards.size());
       ++mask) {
    for (std::size_t bit = 0; bit < guards.size(); ++bit)
      assignment[bit] = ((mask >> bit) & 1u) != 0;
    // Reconstruct every member's unmerged constraint items under this
    // assignment and re-add them in the member/item order the unmerged
    // generator uses, so the combined system — and with it the solver's
    // model — is byte-identical to the unmerged run's.
    solver::ConstraintSet combined;
    bool viable = true;       // a member never existed unmerged here
    bool satisfiable = true;  // the unmerged combination is contradictory
    for (const ExecutionState* member : scenario) {
      items.clear();
      if (!expansion.expandItems(*member, assignment, items)) {
        viable = false;
        break;
      }
      for (const expr::Ref item : items) {
        if (combined.add(item) ==
            solver::ConstraintSet::AddResult::kTriviallyFalse) {
          satisfiable = false;
          break;
        }
      }
      if (!satisfiable) break;
    }
    if (!viable) continue;  // a sibling fork covers this assignment
    std::optional<std::vector<TestCase>> cases;
    if (satisfiable)
      cases = generateScenarioTestCasesOver(solver, scenario, combined);
    if (cases) {
      result.push_back(renderScenarioCases(*cases));
      continue;
    }
    // The combination is unsatisfiable — for one of two very different
    // reasons. If a *merged* member's reconstructed constraints are
    // contradictory on their own, the unmerged exploration never created
    // that arm state (merging weakened the path condition to the arm
    // disjunction, so a later branch forked both ways where the unmerged
    // arm state was one-sided): a phantom assignment, skipped. If every
    // member is individually satisfiable but the cross-node conjunction
    // is not, the unmerged run enumerates the same contradictory
    // scenario and renders the same placeholder.
    bool phantom = false;
    for (const ExecutionState* member : scenario) {
      if (member->mergeGuards.empty()) continue;  // real explored state
      items.clear();
      const bool expanded = expansion.expandItems(*member, assignment, items);
      SDE_ASSERT(expanded, "viable assignment must expand every member");
      solver::ConstraintSet alone;
      bool aloneFalse = false;
      for (const expr::Ref item : items) {
        if (alone.add(item) ==
            solver::ConstraintSet::AddResult::kTriviallyFalse) {
          aloneFalse = true;
          break;
        }
      }
      if (aloneFalse || !solver.getModel(alone)) {
        phantom = true;
        break;
      }
    }
    if (!phantom) result.emplace_back(kUnsatisfiableScenario);
  }
  return result;
}

JobRun runPartitionJob(const EngineFactory& factory, const PartitionJob& job,
                      const RunConfig& config, solver::ShmQueryCache* shared,
                      const JobHooks& hooks) {
  namespace fs = std::filesystem;
  JobRun run;
  const bool durable = !config.checkpointDir.empty();
  const fs::path done = snapshot::jobDonePath(config.checkpointDir, job.id);
  const fs::path ckpt =
      snapshot::jobCheckpointPath(config.checkpointDir, job.id);

  // Completed jobs are never re-run: their recorded result is the
  // result (checked before any engine is even constructed). A fresh
  // start deleted every per-job file, so the file's presence is the rule.
  if (durable && fs::exists(done)) {
    try {
      run.result = snapshot::readJobResultFile(done);
      return run;
    } catch (const snapshot::SnapshotError&) {
      // Torn or corrupt .done file: re-run the job.
    }
  }
  run.executed = true;

  const auto makeEngine = [&] {
    std::unique_ptr<Engine> engine = factory(job);
    SDE_ASSERT(engine != nullptr, "engine factory returned null");
    engine->setDecisionFilter(std::unordered_map<std::string, bool>(
        job.forced.begin(), job.forced.end()));
    engine->solver().setSharedCache(shared);
    if (hooks.onEngine) hooks.onEngine(*engine);
    return engine;
  };
  std::unique_ptr<Engine> engine = makeEngine();

  // Tracing: the sink is installed *before* restore so a resumed job
  // continues the suspended run's sequence numbering (the file itself
  // restarts — the pre-crash events live in the old process's file,
  // which this open truncates).
  std::ofstream traceOs;
  std::unique_ptr<obs::StreamTraceSink> traceSink;
  if (!config.traceDir.empty()) {
    traceOs.open(jobTracePath(config.traceDir, job.id),
                 std::ios::binary | std::ios::trunc);
    obs::TraceHeader header;
    header.numNodes = engine->topology().numNodes();
    header.stream = job.id;
    header.mapper = std::string(engine->mapper().name());
    header.scenario = config.scenarioSpec;
    traceSink = std::make_unique<obs::StreamTraceSink>(traceOs, header);
    engine->setTraceSink(traceSink.get());
  }

  // Any checkpoint present belongs to this run: a resume, or a job
  // re-leased after its fleet worker was killed mid-job.
  if (durable && fs::exists(ckpt)) {
    try {
      std::ifstream in(ckpt, std::ios::binary);
      engine->restore(in);
    } catch (const snapshot::SnapshotError&) {
      engine = makeEngine();  // torn checkpoint: restart from scratch
      if (traceSink != nullptr) engine->setTraceSink(traceSink.get());
    }
  }
  if (durable) {
    engine->setCheckpointSink(
        [&](const Engine& e) {
          snapshot::atomicWriteFile(
              ckpt, [&](std::ostream& os) { e.checkpoint(os); });
          if (hooks.onCheckpoint) hooks.onCheckpoint();
        },
        config.checkpointEveryEvents);
  }

  // What a job nothing is extracted from reports: its id, outcome,
  // sizes and counters.
  const auto unextracted = [&](RunOutcome ending) {
    JobResult result;
    result.jobId = job.id;
    result.outcome = ending;
    result.states = engine->numStates();
    result.events = engine->eventsProcessed();
    engine->mergeStatsInto(result.stats);
    return result;
  };
  const RunOutcome outcome = engine->run(config.horizon);
  if (outcome == RunOutcome::kSuspended) {
    // The abort path already wrote the checkpoint; nothing is extracted
    // from a job that is deliberately unfinished.
    run.result = unextracted(outcome);
  } else {
    try {
      run.result = collectJobResult(*engine, job, config, outcome);
    } catch (const std::bad_alloc&) {
      // No cap bounds the dscenarios a job owns, and the extraction
      // keeps a fingerprint (and maybe a test case) for each: when they
      // do not fit, the job ends as a memory abort, like a capped one.
      run.result = unextracted(RunOutcome::kAbortedMemory);
    }
  }
  if (traceSink != nullptr) {
    engine->setTraceSink(nullptr);
    try {
      traceSink->close();
    } catch (const obs::TraceError& e) {
      support::logError("trace", e.what());
    }
  }
  if (durable && run.result.outcome == RunOutcome::kCompleted) {
    snapshot::writeJobResultFile(done, run.result);
    std::error_code ec;
    fs::remove(ckpt, ec);  // superseded by the .done file
  }
  return run;
}

ParallelResult runPartitioned(const EngineFactory& factory,
                              const PartitionPlan& plan,
                              const ParallelConfig& config) {
  SDE_ASSERT(factory != nullptr, "runPartitioned needs an engine factory");
  SDE_ASSERT(!plan.jobs.empty(), "empty partition plan");
  const auto start = std::chrono::steady_clock::now();

  ParallelResult result;
  result.jobs.resize(plan.jobs.size());

  // Durable mode: bind the run to its checkpoint directory. A resume
  // must find a manifest of *this* run (or no manifest at all — then it
  // degrades to a fresh start); a fresh start clears leftover per-job
  // files so checkpoints of an older run can never leak into this one.
  namespace fs = std::filesystem;
  if (!config.traceDir.empty()) fs::create_directories(config.traceDir);
  const bool durable = !config.checkpointDir.empty();
  bool resuming = false;
  if (durable) {
    fs::create_directories(config.checkpointDir);
    const snapshot::RunManifest manifest{config.scenarioSpec, config.horizon,
                                         plan};
    resuming =
        snapshot::prepareRunDir(config.checkpointDir, manifest, config.resume);
  }

  // Live cross-job query sharing: one store attached to every job's
  // solver, seeded from the sidecar on a resume.
  std::unique_ptr<solver::ShmQueryCache> shared;
  if (config.shmQueryCache)
    shared = snapshot::openSharedStore(
        resuming ? snapshot::sharedCachePath(config.checkpointDir) : "");

  // The fleet's dispatch rule: an idle worker takes the lowest job id no
  // worker holds.
  const unsigned workers = std::max<unsigned>(
      1, std::min<unsigned>(config.workers,
                            static_cast<unsigned>(plan.jobs.size())));
  std::atomic<std::size_t> nextJob{0};
  support::runPlaced(workers, [&](unsigned) {
    for (std::size_t i = nextJob++; i < plan.jobs.size(); i = nextJob++)
      result.jobs[i] =
          runPartitionJob(factory, plan.jobs[i], config, shared.get()).result;
  });

  // Leave the warm store behind, once, so a later resume (after a cap
  // abort, say) starts from everything the run solved. A hard crash
  // leaves the previous sidecar or none: the resume starts colder, and
  // the store contract keeps its digest.
  if (durable && shared != nullptr)
    snapshot::persistSharedStore(*shared, config.checkpointDir);

  // Deterministic merge barrier: fold the jobs in id order.
  finalizeParallelResult(result, plan, config);

  result.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

std::uint64_t ParallelResult::fingerprintDigest() const {
  support::Hasher h;
  h.u64(static_cast<std::uint64_t>(outcome));
  h.u64(totalStates).u64(totalEvents).u64(totalScenariosOwned);
  for (const JobResult& job : jobs) {
    h.u64(job.jobId).u64(static_cast<std::uint64_t>(job.outcome));
    h.u64(job.states).u64(job.events).u64(job.groups).u64(job.memoryBytes);
    h.u64(job.scenariosRepresented).u64(job.scenariosOwned);
    for (const std::uint64_t print : job.scenarioFingerprints) h.u64(print);
    for (const std::uint64_t print : job.stateFingerprints) h.u64(print);
    for (const std::string& testcase : job.testcases) h.str(testcase);
    for (const auto& [name, value] : job.stats.all()) {
      // "solver." counters are attribution, not exploration: with live
      // sharing, *which* layer answered a query depends on what other
      // workers already published (and layer latencies are wall-clock).
      // Everything the run explored is covered by the fingerprints,
      // testcases and engine counters hashed here.
      if (name.starts_with("solver.")) continue;
      h.str(name).u64(value);
    }
  }
  for (const std::uint64_t print : scenarioFingerprints) h.u64(print);
  for (const std::uint64_t print : stateFingerprints) h.u64(print);
  for (const std::string& testcase : testcases) h.str(testcase);
  return h.digest();
}

}  // namespace sde
