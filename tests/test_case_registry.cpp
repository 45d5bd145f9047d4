// Tests for the case table (src/case/builtin.cpp) and the rank builder
// (src/case/registry.*): the table's rows, unknown types named alongside the
// builtin ones, per-case config round trips through ParamMap, exact digests
// of every type's seed and first step, and the contract every builtin
// scenario must honor — a killed run restored from its newest checkpoint
// continues bitwise identically to an uninterrupted run, whatever the case's
// forcing or boundary conditions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <ios>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "case/registry.hpp"
#include "common/error.hpp"
#include "fluid/checkpoint_manager.hpp"
#include "io/fault_injector.hpp"
#include "test_paths.hpp"

namespace felis::cases {
namespace {

namespace fs = std::filesystem;

ParamMap matrix_params(const std::string& type) {
  // The validation-matrix operating point: subcritical, cheap, and exercised
  // by every builtin (examples/validation_matrix.txt).
  ParamMap p;
  p.set("case.type", type);
  p.set("case.Ra", 1500.0);
  p.set("case.Pr", 1.0);
  p.set("case.dt", 2e-2);
  p.set("case.perturbation", 1e-2);
  return p;
}

TEST(CaseRegistry, GlobalRegistryServesTheBuiltinMatrix) {
  std::vector<std::string> types;
  for (const CaseInfo& info : builtin_cases()) types.push_back(info.type);
  for (const char* type : {"rbc", "rbc2d", "rbc_rot", "rbc_cyl", "ihc"})
    EXPECT_TRUE(std::find(types.begin(), types.end(), type) != types.end())
        << type;
  EXPECT_GE(types.size(), 5u);
  EXPECT_TRUE(std::is_sorted(types.begin(), types.end()));
  for (const CaseInfo& info : builtin_cases()) {
    EXPECT_FALSE(info.description.empty()) << info.type;
    EXPECT_TRUE(info.make_geometry != nullptr) << info.type;
    EXPECT_TRUE(info.make_case != nullptr) << info.type;
  }
}

TEST(CaseRegistry, UnknownTypeErrorNamesTheRegisteredCases) {
  try {
    ParamMap p;
    p.set("case.type", "warp_drive");
    resolve_case(p);
    FAIL() << "unknown type must throw";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("warp_drive"), std::string::npos) << msg;
    // The message must list what IS available, so a typo in a campaign file
    // is a one-glance fix.
    for (const char* type : {"rbc", "rbc2d", "rbc_rot", "rbc_cyl", "ihc"})
      EXPECT_NE(msg.find(type), std::string::npos) << msg;
  }
}

TEST(CaseRegistry, ResolveCaseDefaultsToRbc) {
  EXPECT_EQ(resolve_case(ParamMap()).type, "rbc");
  ParamMap p;
  p.set("case.type", "ihc");
  EXPECT_EQ(resolve_case(p).type, "ihc");
}

TEST(CaseRegistry, ConfigRoundTripsThroughParamMap) {
  // Physics keys written into a ParamMap must come back out of the built
  // case's parameters() — the campaign CSV depends on this.
  comm::SelfComm comm;
  for (const CaseInfo& info : builtin_cases()) {
    const std::string& type = info.type;
    ParamMap p = matrix_params(type);
    p.set("case.Ra", 2500.0);
    p.set("case.Pr", 0.7);
    if (type == "rbc_rot") p.set("case.Ro", 0.5);
    const std::unique_ptr<CaseSetup> setup = build_case(info, p, comm);
    EXPECT_EQ(setup->sim->type(), type);
    const Observables params = setup->sim->parameters();
    EXPECT_DOUBLE_EQ(params.at("Ra"), 2500.0) << type;
    EXPECT_DOUBLE_EQ(params.at("Pr"), 0.7) << type;
    if (type == "rbc_rot") {
      EXPECT_DOUBLE_EQ(params.at("Ro"), 0.5);
    }
    // Every case must publish the common observable contract.
    setup->sim->set_initial_conditions();
    const Observables obs = setup->sim->observables();
    for (const char* name : {"nu_plate", "nu_volume", "kinetic_energy"})
      EXPECT_TRUE(obs.count(name)) << type << " lacks " << name;
  }
}

// ---- bitwise pins -------------------------------------------------------------

/// FNV-1a over raw bytes: any changed bit of any value changes the digest.
std::uint64_t fnv1a(std::uint64_t h, const void* data, usize n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (usize i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

std::uint64_t digest(const RealVec& v) {
  return fnv1a(kFnvBasis, v.data(), v.size() * sizeof(real_t));
}
std::uint64_t digest(const Observables& values) {
  std::uint64_t h = kFnvBasis;
  for (const auto& [name, value] : values) {
    h = fnv1a(h, name.data(), name.size());
    h = fnv1a(h, &value, sizeof(value));
  }
  return h;
}

struct Pins {
  const char* type;
  std::uint64_t seed_t;        ///< T after set_initial_conditions()
  std::uint64_t u, v, w, t;    ///< the fields after two steps
  std::uint64_t observables;   ///< after two steps
  std::uint64_t parameters;
};

TEST(CaseRegistry, EveryBuiltinTypeIsPinnedBitwise) {
  // Exact digests of every builtin type at the matrix point: the seed field,
  // then the fields, observables and parameters after two steps. The
  // validation matrix checks physics to a tolerance; this checks that the
  // seed, the boundary conditions and the forcing of each type did not move
  // by one bit. A change here is a numerical change: re-record it on purpose.
  // Two steps, because the Coriolis force is explicit in the velocity, which
  // is zero through the first step: only the second tells rbc_rot from rbc.
  // The seed and the cylinder mesh call std::sin/std::cos, so the digests
  // assume the C library's results, as felis_bench's seed-7 references do.
  constexpr Pins kPins[] = {
      {"ihc", 0xb7436786512da9eeull, 0x251919c315a46ce8ull,
       0xadd3e41565a9a16full, 0x19e09aa26e903791ull, 0x9939683a7064479eull,
       0xcea25c74efe7cd7aull, 0x0fe9d91a9ace4358ull},
      {"rbc", 0x2e3ec558dfda712aull, 0x0bc4fd25bd0ca836ull,
       0xeb08a7fe026becc6ull, 0x9730066cd90f4599ull, 0x9728908432fd5d34ull,
       0x421228fa6f062770ull, 0x0fe9d91a9ace4358ull},
      {"rbc2d", 0x3687df78bca13badull, 0x5aaf1aaee1aace3bull,
       0x94335aaca2e1463cull, 0x05b523936fc5b7ddull, 0xd40c8f268c75c956ull,
       0xab6e751b92db0559ull, 0x0fe9d91a9ace4358ull},
      {"rbc_cyl", 0x38d2a2dbe40bce8full, 0xf2e3980096c18e11ull,
       0x5976c4c6baee62f3ull, 0x71c170c4370c114full, 0xa01aea36da74c0e2ull,
       0x999b3292582f5d71ull, 0x0fe9d91a9ace4358ull},
      {"rbc_rot", 0x2e3ec558dfda712aull, 0x013c97297641098aull,
       0xeb52d70069f8b3adull, 0x69a668d7d7506439ull, 0x9728908432fd5d34ull,
       0x677e687afa9c43caull, 0xd976f52e579309daull},
  };
  ASSERT_EQ(builtin_cases().size(), std::size(kPins));
  const auto expect_pin = [](const char* what, std::uint64_t got,
                             std::uint64_t want) {
    EXPECT_EQ(got, want) << what << " digest is 0x" << std::hex << got;
  };
  comm::SelfComm comm;
  for (const Pins& pin : kPins) {
    SCOPED_TRACE(pin.type);
    const ParamMap params = matrix_params(pin.type);
    const std::unique_ptr<CaseSetup> setup =
        build_case(resolve_case(params), params, comm);
    Case& sim = *setup->sim;
    sim.set_initial_conditions();
    expect_pin("seed T", digest(sim.solver().temperature()), pin.seed_t);
    sim.step();
    sim.step();
    expect_pin("u", digest(sim.solver().u()), pin.u);
    expect_pin("v", digest(sim.solver().v()), pin.v);
    expect_pin("w", digest(sim.solver().w()), pin.w);
    expect_pin("T", digest(sim.solver().temperature()), pin.t);
    expect_pin("observables", digest(sim.observables()), pin.observables);
    expect_pin("parameters", digest(sim.parameters()), pin.parameters);
  }
}

class CaseRegistryRestartTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::test_scratch_dir("felis_case_registry_");
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fluid::CheckpointConfig config() const {
    fluid::CheckpointConfig c;
    c.directory = dir_;
    c.keep = 3;
    c.every = 4;
    c.retry_backoff_ms = 1;
    return c;
  }

  std::string dir_;
};

TEST_F(CaseRegistryRestartTest, EveryRegisteredCaseRestoresBitwise) {
  // The kill-and-restore acceptance scenario of test_checkpoint.cpp, run
  // against every builtin case type through the table: checkpoint at step
  // 4, killed while writing at step 8, recovered from the newest valid
  // checkpoint, bitwise identical to the uninterrupted run at step 10.
  comm::SelfComm comm;
  for (const CaseInfo& info : builtin_cases()) {
    const std::string& type = info.type;
    SCOPED_TRACE(type);
    const ParamMap params = matrix_params(type);

    const std::unique_ptr<CaseSetup> ref = build_case(info, params, comm);
    ref->sim->set_initial_conditions();
    for (int s = 0; s < 10; ++s) ref->sim->step();

    // First life: dies between the tmp write and the rename at step 8.
    io::FaultInjector fault(
        {io::FaultInjector::Mode::kCrash, /*at=*/2, /*count=*/1, 0});
    auto cfg = config();
    cfg.directory = dir_ + "/" + type;
    {
      fluid::CheckpointManager manager(cfg, &fault);
      const std::unique_ptr<CaseSetup> first = build_case(info, params, comm);
      first->sim->set_initial_conditions();
      bool died = false;
      for (int s = 0; s < 10 && !died; ++s) {
        first->sim->step();
        try {
          first->sim->maybe_checkpoint(manager);
        } catch (const io::InjectedCrash&) {
          died = true;  // the "process" is gone; nothing else may run
        }
      }
      ASSERT_TRUE(died);
    }

    // Second life: fresh everything, automatic recovery, then catch up.
    fluid::CheckpointManager manager(cfg);
    const std::unique_ptr<CaseSetup> second = build_case(info, params, comm);
    ASSERT_TRUE(second->sim->restore_latest(manager));
    EXPECT_EQ(second->sim->solver().step_count(), 4);
    while (second->sim->solver().step_count() < 10) second->sim->step();

    const RealVec& a = ref->sim->solver().u();
    const RealVec& b = second->sim->solver().u();
    ASSERT_EQ(a.size(), b.size());
    for (usize i = 0; i < a.size(); ++i)
      ASSERT_EQ(a[i], b[i]) << "bitwise mismatch at dof " << i;
    const RealVec& ta = ref->sim->solver().temperature();
    const RealVec& tb = second->sim->solver().temperature();
    for (usize i = 0; i < ta.size(); ++i) ASSERT_EQ(ta[i], tb[i]);
    EXPECT_EQ(ref->sim->solver().time(), second->sim->solver().time());
  }
}

TEST_F(CaseRegistryRestartTest, RanksResumeFromTheNewestStepAllOfThemHold) {
  // Two simulated ranks checkpoint every 4 steps to step 12; then rank 1
  // loses its newest file, as a crash between the two ranks' writes leaves
  // it. Both ranks must restore step 8, the newest step both hold, and reach
  // step 14 in exactly the state of the uninterrupted run.
  const ParamMap params = matrix_params("rbc");
  const CaseInfo& info = resolve_case(params);
  const auto rotation = [this](int rank) {
    fluid::CheckpointConfig c = config();
    c.basename += ".r" + std::to_string(rank);
    return c;
  };
  const auto state = [](const Case& sim) {
    RealVec s = sim.solver().temperature();
    for (const RealVec* v :
         {&sim.solver().u(), &sim.solver().v(), &sim.solver().w()})
      s.insert(s.end(), v->begin(), v->end());
    return s;
  };
  // Each rank writes only its own slot.
  std::vector<RealVec> reference(2), resumed(2);
  std::vector<std::int64_t> restored(2, -1);
  comm::run_parallel(2, [&](comm::Communicator& comm) {
    const std::unique_ptr<CaseSetup> setup = build_case(info, params, comm);
    setup->sim->set_initial_conditions();
    fluid::CheckpointManager manager(rotation(comm.rank()));
    for (int s = 0; s < 14; ++s) {
      setup->sim->step();
      setup->sim->maybe_checkpoint(manager);
    }
    reference[static_cast<usize>(comm.rank())] = state(*setup->sim);
  });
  const fluid::CheckpointManager rank1(rotation(1));
  ASSERT_TRUE(fs::remove(rank1.path_for_step(12)));

  comm::run_parallel(2, [&](comm::Communicator& comm) {
    const std::unique_ptr<CaseSetup> setup = build_case(info, params, comm);
    setup->sim->set_initial_conditions();
    const usize r = static_cast<usize>(comm.rank());
    if (setup->sim->restore_latest(fluid::CheckpointManager(rotation(comm.rank()))))
      restored[r] = setup->sim->solver().step_count();
    // Ranks at different steps would deadlock in the lockstep exchanges:
    // stop both, so a restore that disagrees fails the test, not hangs it.
    const gidx_t step = setup->sim->solver().step_count();
    if (comm.allreduce_scalar(step, comm::ReduceOp::kMin) !=
        comm.allreduce_scalar(step, comm::ReduceOp::kMax))
      return;
    while (setup->sim->solver().step_count() < 14) setup->sim->step();
    resumed[r] = state(*setup->sim);
  });
  EXPECT_EQ(restored, (std::vector<std::int64_t>{8, 8}));
  for (usize r = 0; r < 2; ++r) {
    ASSERT_EQ(reference[r].size(), resumed[r].size());
    for (usize i = 0; i < reference[r].size(); ++i)
      ASSERT_EQ(reference[r][i], resumed[r][i])
          << "rank " << r << ": bitwise mismatch at " << i;
  }
}

// ---- the telemetry channel --------------------------------------------------

using CaseChannelTest = CaseRegistryRestartTest;

std::string first_line(const fs::path& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// The header of a rank's stream carries the host's keys and the six
/// identity keys the builder writes.
void expect_header(const fs::path& stream, int rank, int size) {
  SCOPED_TRACE(stream.string());
  const std::string header = first_line(stream);
  ASSERT_EQ(header.rfind(R"({"type":"header")", 0), 0u) << header;
  for (const std::string& field :
       {std::string(R"("program":"test")"), std::string(R"("type":"rbc")"),
        std::string(R"("backend":")"), std::string(R"("threads":")"),
        std::string(R"("degree":"4")"),
        R"("rank":")" + std::to_string(rank) + '"',
        R"("size":")" + std::to_string(size) + '"'})
    EXPECT_NE(header.find(field), std::string::npos) << field << " in " << header;
}

TEST_F(CaseChannelTest, OneRankWritesTheChannelRanksEachTheirOwnDirectory) {
  ParamMap params = matrix_params("rbc");
  params.set("telemetry.enabled", true);
  params.set("telemetry.heartbeat", 0);
  const CaseInfo& info = resolve_case(params);
  const auto run = [&](comm::Communicator& comm, const std::string& dir) {
    const TelemetryChannel channel{dir, {{"program", "test"}}};
    const std::unique_ptr<CaseSetup> setup =
        build_case(info, params, comm, nullptr, &channel);
    ASSERT_NE(setup->telemetry, nullptr);
    setup->sim->set_initial_conditions();
    setup->sim->step();
  };
  comm::SelfComm self;
  run(self, dir_ + "/one");
  expect_header(fs::path(dir_) / "one" / "run.ndjson", 0, 1);
  EXPECT_FALSE(fs::exists(fs::path(dir_) / "one" / "rank0"));

  comm::run_parallel(2, [&](comm::Communicator& comm) { run(comm, dir_ + "/two"); });
  for (int rank : {0, 1})
    expect_header(fs::path(dir_) / "two" / ("rank" + std::to_string(rank)) /
                      "run.ndjson",
                  rank, 2);
  EXPECT_FALSE(fs::exists(fs::path(dir_) / "two" / "run.ndjson"));
}

TEST_F(CaseChannelTest, NothingIsWrittenWithoutAChannel) {
  // telemetry.enabled alone opens nothing: only a host names a channel. And
  // a channel opens nothing while telemetry.enabled is false.
  const TelemetryChannel channel{dir_, {{"program", "test"}}};
  comm::SelfComm comm;
  for (const bool enabled : {true, false}) {
    SCOPED_TRACE(enabled ? "enabled, no channel" : "channel, disabled");
    ParamMap params = matrix_params("rbc");
    params.set("telemetry.enabled", enabled);
    params.set("telemetry.dir", dir_);
    const std::unique_ptr<CaseSetup> setup = build_case(
        resolve_case(params), params, comm, nullptr, enabled ? nullptr : &channel);
    EXPECT_EQ(setup->telemetry, nullptr);
    EXPECT_EQ(setup->sim->solver().telemetry(), nullptr);
    setup->sim->set_initial_conditions();
    setup->sim->step();
    EXPECT_FALSE(fs::exists(dir_));
  }
}

}  // namespace
}  // namespace felis::cases
