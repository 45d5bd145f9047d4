// felis_check — exhaustive explicit-state model checking of the crash-safety
// protocols (see src/verify/ and DESIGN.md §11).
//
//   felis_check --all                    check every protocol model at the
//                                        documented bounds (CI gate)
//   felis_check --model manifest [opts]  manifest state machine + crash /
//                                        torn-tail / duplicate faults
//   felis_check --model checkpoint [opts]
//                                        checkpoint rotation/retry/recovery
//                                        + fail-write/truncate/corrupt/crash
//   --expect-violation                   succeed only if a counterexample is
//                                        found (and print it) — used to
//                                        demonstrate e.g. the fault_budget >=
//                                        keep rotation hazard
//
// Exit codes: 0 = invariants hold (or expected violation found), 1 =
// counterexample found (trace printed) or expected violation absent, 2 =
// usage error, 3 = state space not exhausted within --max-states.
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "verify/checker.hpp"
#include "verify/checkpoint_model.hpp"
#include "verify/manifest_model.hpp"

namespace {

using felis::usize;
using felis::verify::CheckResult;

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

struct Cli {
  std::string model;  // "", "manifest", "checkpoint"
  bool all = false;
  bool expect_violation = false;
  usize max_states = 4000000;
  felis::verify::ManifestModelOptions manifest;
  felis::verify::CheckpointModelOptions checkpoint;
};

int check_manifest(const Cli& cli) {
  const felis::verify::ManifestModel model(cli.manifest);
  const auto& o = model.options();
  std::ostringstream bounds;
  bounds << o.cases << " cases, " << o.workers << " workers, budget "
         << o.thread_budget << ", retries " << o.max_retries << ", failures "
         << o.max_total_failures << ", sessions " << o.max_sessions
         << ", torn tails " << (o.torn_tails ? "on" : "off")
         << ", duplicate faults " << (o.duplicate_faults ? "on" : "off");
  return report("manifest", bounds.str(),
                felis::verify::check(model, cli.max_states),
                cli.expect_violation);
}

int check_checkpoint(const Cli& cli) {
  const felis::verify::CheckpointModel model(cli.checkpoint);
  const auto& o = model.options();
  std::ostringstream bounds;
  bounds << o.steps << " steps, keep " << o.keep << ", retries "
         << o.max_retries << ", fault budget " << o.fault_budget;
  return report("checkpoint", bounds.str(),
                felis::verify::check(model, cli.max_states),
                cli.expect_violation);
}

int run_all(const Cli& cli) {
  // The documented bounds (DESIGN.md §11): >= 3 cases on >= 2 workers with a
  // binding thread budget, a crash at every journalled point with the full
  // torn-tail menu, duplicate stale-terminal faults; >= 2 retained
  // checkpoints with every fault the injector knows. Plus the demonstrated
  // rotation hazard at fault_budget == keep.
  int rc = 0;
  Cli manifest = cli;
  manifest.expect_violation = false;
  rc |= check_manifest(manifest);

  Cli checkpoint = cli;
  checkpoint.expect_violation = false;
  rc |= check_checkpoint(checkpoint);

  Cli hazard = cli;
  hazard.checkpoint.fault_budget = hazard.checkpoint.keep;
  hazard.expect_violation = true;
  std::cout << "\n(the next run demonstrates the documented rotation hazard "
               "at fault budget == keep)\n";
  rc |= check_checkpoint(hazard);
  return rc;
}

int usage() {
  std::cout
      << "usage: felis_check --all | --model manifest|checkpoint [options]\n"
         "  common:   --max-states N   --expect-violation\n"
         "  manifest: --cases N --workers N --budget N --retries N\n"
         "            --failures N --sessions N --no-torn --no-duplicates\n"
         "  checkpoint: --steps N --keep N --ckpt-retries N --faults N\n"
         "              --no-monotonic\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  const auto int_arg = [&](int& i, const char* what) {
    if (i + 1 >= argc) {
      std::cout << "missing value for " << what << "\n";
      std::exit(2);
    }
    return std::stoi(argv[++i]);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--all") cli.all = true;
    else if (arg == "--model") {
      if (i + 1 >= argc) return usage();
      cli.model = argv[++i];
    } else if (arg == "--expect-violation") cli.expect_violation = true;
    else if (arg == "--max-states")
      cli.max_states = static_cast<usize>(int_arg(i, "--max-states"));
    else if (arg == "--cases") cli.manifest.cases = int_arg(i, arg.c_str());
    else if (arg == "--workers") cli.manifest.workers = int_arg(i, arg.c_str());
    else if (arg == "--budget")
      cli.manifest.thread_budget = int_arg(i, arg.c_str());
    else if (arg == "--retries")
      cli.manifest.max_retries = int_arg(i, arg.c_str());
    else if (arg == "--failures")
      cli.manifest.max_total_failures = int_arg(i, arg.c_str());
    else if (arg == "--sessions")
      cli.manifest.max_sessions = int_arg(i, arg.c_str());
    else if (arg == "--no-torn") cli.manifest.torn_tails = false;
    else if (arg == "--no-duplicates") cli.manifest.duplicate_faults = false;
    else if (arg == "--steps") cli.checkpoint.steps = int_arg(i, arg.c_str());
    else if (arg == "--keep") cli.checkpoint.keep = int_arg(i, arg.c_str());
    else if (arg == "--ckpt-retries")
      cli.checkpoint.max_retries = int_arg(i, arg.c_str());
    else if (arg == "--faults")
      cli.checkpoint.fault_budget = int_arg(i, arg.c_str());
    else if (arg == "--no-monotonic") cli.checkpoint.check_monotonic = false;
    else if (arg == "--help" || arg == "-h") return usage();
    else {
      std::cout << "unknown argument: " << arg << "\n";
      return usage();
    }
  }

  try {
    if (cli.all) return run_all(cli);
    if (cli.model == "manifest") return check_manifest(cli);
    if (cli.model == "checkpoint") return check_checkpoint(cli);
    return usage();
  } catch (const std::exception& err) {
    std::cout << "felis_check: " << err.what() << "\n";
    return 2;
  }
}
