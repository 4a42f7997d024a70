#include "sde/testcase.hpp"

#include <sstream>

namespace sde {

namespace {

TestCase buildFromModel(const ExecutionState& state,
                        const expr::Assignment& model) {
  TestCase testCase;
  testCase.state = state.id();
  testCase.node = state.node();
  testCase.failureMessage = state.cold().failureMessage;
  testCase.inputs.reserve(state.symbolics.size());
  for (expr::Ref var : state.symbolics) {
    // Inputs unconstrained on this path may take any value; 0 is the
    // canonical witness (same convention as KLEE's ktest files).
    testCase.inputs.push_back(TestCaseInput{std::string(var->name()),
                                            var->width(),
                                            model.get(var).value_or(0)});
  }
  return testCase;
}

}  // namespace

std::optional<TestCase> generateTestCase(solver::SolverClient& solver,
                                         const ExecutionState& state) {
  const auto model = solver.getModel(state.constraints);
  if (!model) return std::nullopt;
  return buildFromModel(state, *model);
}

std::optional<std::vector<TestCase>> generateScenarioTestCases(
    solver::SolverClient& solver, std::span<ExecutionState* const> scenario) {
  // Union of all members' path constraints: one consistent run of the
  // whole network.
  solver::ConstraintSet combined;
  for (const ExecutionState* state : scenario) {
    for (expr::Ref c : state->constraints.items()) {
      if (combined.add(c) == solver::ConstraintSet::AddResult::kTriviallyFalse)
        return std::nullopt;
    }
  }
  return generateScenarioTestCasesOver(solver, scenario, combined);
}

std::optional<std::vector<TestCase>> generateScenarioTestCasesOver(
    solver::SolverClient& solver, std::span<ExecutionState* const> scenario,
    const solver::ConstraintSet& combined) {
  const auto model = solver.getModel(combined);
  if (!model) return std::nullopt;

  std::vector<TestCase> result;
  result.reserve(scenario.size());
  for (const ExecutionState* state : scenario)
    result.push_back(buildFromModel(*state, *model));
  return result;
}

std::string formatTestCase(const TestCase& testCase) {
  std::ostringstream os;
  os << "test case [node " << testCase.node << ", state " << testCase.state
     << "]";
  if (!testCase.failureMessage.empty())
    os << " FAILURE: " << testCase.failureMessage;
  os << "\n";
  for (const TestCaseInput& input : testCase.inputs)
    os << "  " << input.name << " (w" << input.width << ") = " << input.value
       << "\n";
  return os.str();
}

}  // namespace sde
