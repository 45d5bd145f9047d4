// felis_check — exhaustive explicit-state model checking of the crash-safety
// protocols (see src/verify/ and DESIGN.md §11): `--all` checks every model at
// the documented bounds (the CI gate), `--model manifest|checkpoint` one model
// at the bounds its options set; `--expect-violation` succeeds only on a
// counterexample (the fault budget >= keep rotation hazard). The options are
// declared below; the usage text lists them.
//
// Exit codes: 0 = invariants hold (or expected violation found), 1 =
// counterexample found (trace printed) or expected violation absent, 2 =
// usage error (an argument that is not declared, does not parse or lies
// outside its range), 3 = state space not exhausted within --max-states.
#include <iostream>
#include <sstream>
#include <string>

#include "common/params.hpp"
#include "verify/checker.hpp"
#include "verify/checkpoint_model.hpp"
#include "verify/manifest_model.hpp"

namespace {

using felis::Param;
using felis::usize;
using felis::verify::CheckResult;

const Param<bool> kAll{"--all", "check every model at the documented bounds"};
const Param<std::string> kModel{"--model", "manifest | checkpoint"};
const Param<bool> kExpectViolation{"--expect-violation", "pass only on a counterexample"};
const Param<int> kMaxStates{"--max-states", 0, "state cap (exit 3 when hit)"};
const Param<int> kCases{"--cases", 0, "manifest: cases"};
const Param<int> kWorkers{"--workers", 0, "manifest: workers"};
const Param<int> kBudget{"--budget", 0, "manifest: thread budget"};
const Param<int> kRetries{"--retries", 0, "manifest: retries per case"};
const Param<int> kFailures{"--failures", 0, "manifest: injected failures"};
const Param<int> kSessions{"--sessions", 0, "manifest: crash/resume sessions"};
const Param<bool> kNoTorn{"--no-torn", "manifest: no torn journal tails"};
const Param<bool> kNoDuplicates{"--no-duplicates", "manifest: no duplicate terminals"};
const Param<int> kSteps{"--steps", 0, "checkpoint: checkpoint steps"};
const Param<int> kKeep{"--keep", 0, "checkpoint: rotation depth"};
const Param<int> kCkptRetries{"--ckpt-retries", 0, "checkpoint: retries per write"};
const Param<int> kFaults{"--faults", 0, "checkpoint: fault budget"};
const Param<bool> kNoMonotonic{"--no-monotonic", "checkpoint: skip the monotonic check"};
const felis::CommandLine kCli{
    "felis_check",
    {&kAll, &kModel, &kExpectViolation, &kMaxStates, &kCases, &kWorkers, &kBudget,
     &kRetries, &kFailures, &kSessions, &kNoTorn, &kNoDuplicates, &kSteps, &kKeep,
     &kCkptRetries, &kFaults, &kNoMonotonic},
    {}};

void print_trace(const CheckResult& result) {
  std::cout << "counterexample (" << result.trace.size() - 1
            << " transitions):\n";
  for (usize i = 0; i < result.trace.size(); ++i) {
    std::cout << "  [" << i << "] " << result.trace[i].action << "\n";
    std::istringstream dump(result.trace[i].state);
    std::string line;
    while (std::getline(dump, line)) std::cout << "      " << line << "\n";
  }
  std::cout << "violated invariant: " << result.violation << "\n";
}

/// Report one model run. Returns the process exit code contribution.
int report(const std::string& name, const std::string& bounds,
           const CheckResult& result, bool expect_violation) {
  std::cout << "model '" << name << "' (" << bounds << "):\n";
  std::cout << "  explored " << result.stats.states << " states, "
            << result.stats.transitions << " transitions, depth "
            << result.stats.depth
            << (result.complete ? " (exhaustive)" : " (TRUNCATED)") << "\n";
  if (!result.complete && result.ok) {
    std::cout << "  ERROR: state space not exhausted; raise --max-states\n";
    return 3;
  }
  if (expect_violation) {
    if (result.ok) {
      std::cout << "  ERROR: expected an invariant violation, found none\n";
      return 1;
    }
    std::cout << "  expected violation found:\n";
    print_trace(result);
    return 0;
  }
  if (!result.ok) {
    print_trace(result);
    return 1;
  }
  std::cout << "  invariants hold.\n";
  return 0;
}

int check_manifest(const felis::verify::ManifestModelOptions& options, usize max_states,
                   bool expect_violation) {
  const felis::verify::ManifestModel model(options);
  const auto& o = model.options();
  std::ostringstream bounds;
  bounds << o.cases << " cases, " << o.workers << " workers, budget "
         << o.thread_budget << ", retries " << o.max_retries << ", failures "
         << o.max_total_failures << ", sessions " << o.max_sessions
         << ", torn tails " << (o.torn_tails ? "on" : "off")
         << ", duplicate faults " << (o.duplicate_faults ? "on" : "off");
  return report("manifest", bounds.str(), felis::verify::check(model, max_states),
                expect_violation);
}

int check_checkpoint(const felis::verify::CheckpointModelOptions& options,
                     usize max_states, bool expect_violation) {
  const felis::verify::CheckpointModel model(options);
  const auto& o = model.options();
  std::ostringstream bounds;
  bounds << o.steps << " steps, keep " << o.keep << ", retries "
         << o.max_retries << ", fault budget " << o.fault_budget;
  return report("checkpoint", bounds.str(), felis::verify::check(model, max_states),
                expect_violation);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const felis::ParamMap args = kCli.parse(argc, argv);
    const bool expect_violation = kExpectViolation.get(args, false);
    const auto max_states = static_cast<usize>(kMaxStates.get(args, 4000000));
    felis::verify::ManifestModelOptions m;
    m.cases = kCases.get(args, m.cases);
    m.workers = kWorkers.get(args, m.workers);
    m.thread_budget = kBudget.get(args, m.thread_budget);
    m.max_retries = kRetries.get(args, m.max_retries);
    m.max_total_failures = kFailures.get(args, m.max_total_failures);
    m.max_sessions = kSessions.get(args, m.max_sessions);
    m.torn_tails = !kNoTorn.get(args, false);
    m.duplicate_faults = !kNoDuplicates.get(args, false);
    felis::verify::CheckpointModelOptions c;
    c.steps = kSteps.get(args, c.steps);
    c.keep = kKeep.get(args, c.keep);
    c.max_retries = kCkptRetries.get(args, c.max_retries);
    c.fault_budget = kFaults.get(args, c.fault_budget);
    c.check_monotonic = !kNoMonotonic.get(args, false);
    const std::string model = kModel.get(args, "");
    if (kAll.get(args, false)) {
      // The documented bounds (DESIGN.md §11): >= 3 cases on >= 2 workers with
      // a binding thread budget, a crash at every journalled point with the
      // full torn-tail menu, duplicate stale-terminal faults; >= 2 retained
      // checkpoints with every fault the injector knows. Plus the demonstrated
      // rotation hazard at fault_budget == keep.
      int rc = check_manifest(m, max_states, false);
      rc |= check_checkpoint(c, max_states, false);
      std::cout << "\n(the next run demonstrates the documented rotation hazard "
                   "at fault budget == keep)\n";
      c.fault_budget = c.keep;
      return rc | check_checkpoint(c, max_states, true);
    }
    if (model == "manifest") return check_manifest(m, max_states, expect_violation);
    if (model == "checkpoint") return check_checkpoint(c, max_states, expect_violation);
    std::cout << kCli.usage();
  } catch (const felis::UsageError& err) {
    std::cout << err.what() << "\n" << kCli.usage();
  } catch (const std::exception& err) {
    std::cout << "felis_check: " << err.what() << "\n";
  }
  return 2;
}
