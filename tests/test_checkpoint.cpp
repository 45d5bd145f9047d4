// Tests for checkpoint/restart: serialization round trips (in-memory and
// on-disk, coded and raw), exact bitwise continuation of the integrator with
// and without the projection space, deserializer robustness (every prefix
// truncation and single-byte flip of a blob must throw cleanly, crafted
// hostile length fields must not OOB-read), the crash-safe rotation manager
// under injected faults (transient failures, torn writes, bitrot, kills),
// and in-situ stream/POD state round trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "case/rbc.hpp"
#include "common/crc32.hpp"
#include "fluid/checkpoint.hpp"
#include "fluid/checkpoint_manager.hpp"
#include "io/atomic_file.hpp"
#include "operators/setup.hpp"
#include "precon/coarse.hpp"
#include "test_paths.hpp"

namespace felis::fluid {
namespace {

namespace fs = std::filesystem;

struct Case {
  operators::RankSetup fine;
  operators::RankSetup coarse;
  std::unique_ptr<rbc::RbcSimulation> sim;
};

Case make_case(comm::Communicator& comm, bool projection) {
  mesh::BoxMeshConfig box;
  box.nx = box.ny = 3;
  box.nz = 3;
  box.lx = box.ly = 2.0;
  box.periodic_x = box.periodic_y = true;
  const mesh::HexMesh mesh = make_box_mesh(box);
  Case c;
  c.fine = operators::make_rank_setup(mesh, 4, comm, true);
  c.coarse = precon::make_coarse_setup(mesh, comm);
  rbc::RbcConfig rc;
  rc.rayleigh = 1e5;
  rc.dt = 1.5e-2;
  rc.perturbation = 2e-2;
  rc.perturbation_lx = box.lx;
  rc.perturbation_ly = box.ly;
  rc.flow.velocity_walls = {mesh::FaceTag::kBottom, mesh::FaceTag::kTop};
  rc.flow.use_projection = projection;
  c.sim = std::make_unique<rbc::RbcSimulation>(c.fine.ctx(), c.coarse.ctx(), rc);
  c.sim->set_initial_conditions();
  return c;
}

/// Small fully-populated checkpoint (every section non-trivial) whose blob is
/// ~1.5 KB, so exhaustive per-byte fuzz loops stay fast.
Checkpoint tiny_checkpoint(std::int64_t step = 5) {
  Checkpoint ck;
  ck.step = step;
  ck.time = 0.25 * static_cast<real_t>(step);
  const auto fill = [](RealVec& v, real_t base) {
    v.resize(6);
    for (usize i = 0; i < v.size(); ++i)
      v[i] = base + 0.01 * static_cast<real_t>(i);
  };
  fill(ck.u, 1.0);
  fill(ck.v, 2.0);
  fill(ck.w, 3.0);
  fill(ck.temperature, 4.0);
  fill(ck.pressure, 5.0);
  real_t base = 6.0;
  for (auto* arr : {&ck.u_lag1, &ck.u_lag2, &ck.f_lag0, &ck.f_lag1})
    for (RealVec& f : *arr) fill(f, base += 1.0);
  for (RealVec* f : {&ck.t_lag1, &ck.t_lag2, &ck.g_lag0, &ck.g_lag1})
    fill(*f, base += 1.0);
  ck.projection.present = true;
  for (int k = 0; k < 2; ++k) {
    ck.projection.basis.emplace_back();
    ck.projection.a_basis.emplace_back();
    fill(ck.projection.basis.back(), 20.0 + k);
    fill(ck.projection.a_basis.back(), 30.0 + k);
  }
  ck.solver_stats.present = true;
  ck.solver_stats.info.step = step;
  ck.solver_stats.info.time = ck.time;
  ck.solver_stats.info.cfl = 0.5;
  ck.solver_stats.info.pressure_iterations = 12;
  ck.solver_stats.info.velocity_iterations = 9;
  ck.solver_stats.info.scalar_iterations = 4;
  ck.solver_stats.info.pressure_residual = 1e-8;
  ck.solver_stats.info.divergence = 1e-10;
  ck.insitu.present = true;
  ck.insitu.pushed = 12;
  ck.insitu.popped = 9;
  ck.insitu.has_pod = true;
  ck.insitu.pod.count = 12;
  ck.insitu.pod.rows = 6;
  ck.insitu.pod.sigma = {2.0, 1.0};
  fill(ck.insitu.pod.modes, 40.0);
  ck.insitu.pod.modes.resize(12, 0.125);
  ck.insitu.pod.discarded_energy = 0.03125;
  return ck;
}

// --- crafting helpers mirroring the FELISCK2 container layout -------------

constexpr usize kHeaderBytes = 56;
constexpr usize kFlagsOffset = 16;
constexpr usize kHeaderCrcOffset = 48;

void patch_u64(std::vector<std::byte>& blob, usize offset, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    blob[offset + static_cast<usize>(i)] =
        static_cast<std::byte>((v >> (8 * i)) & 0xff);
}

void push_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
}

/// Wrap a raw (uncompressed) section stream in a well-formed v2 container:
/// all three CRCs are honest, so parsing reaches the section level.
std::vector<std::byte> craft_container(const std::vector<std::byte>& sections) {
  std::vector<std::byte> blob;
  push_u64(blob, 0x46454c4953434b32ull);  // magic "FELISCK2"
  push_u64(blob, 2);                      // version
  push_u64(blob, 0);                      // flags: raw
  push_u64(blob, 4);                      // section count
  push_u64(blob, crc32(sections));
  push_u64(blob, crc32(sections));
  push_u64(blob, crc32(blob.data(), kHeaderCrcOffset));
  blob.insert(blob.end(), sections.begin(), sections.end());
  return blob;
}

// --------------------------------------------------------------------------

TEST(Checkpoint, SerializeRoundTripPreservesEverything) {
  comm::SelfComm comm;
  Case c = make_case(comm, true);
  for (int s = 0; s < 6; ++s) c.sim->step();
  const Checkpoint ck = capture_checkpoint(c.sim->solver());
  ASSERT_TRUE(ck.projection.present);
  ASSERT_TRUE(ck.solver_stats.present);
  ASSERT_GT(ck.projection.basis.size(), 0u);
  for (const bool coded : {true, false}) {
    const auto blob = ck.serialize(coded);
    const Checkpoint back = Checkpoint::deserialize(blob);
    EXPECT_EQ(back.step, ck.step);
    EXPECT_EQ(back.time, ck.time);
    ASSERT_EQ(back.u.size(), ck.u.size());
    for (usize i = 0; i < ck.u.size(); ++i) {
      ASSERT_EQ(back.u[i], ck.u[i]);
      ASSERT_EQ(back.temperature[i], ck.temperature[i]);
      ASSERT_EQ(back.pressure[i], ck.pressure[i]);
      ASSERT_EQ(back.u_lag2[1][i], ck.u_lag2[1][i]);
      ASSERT_EQ(back.f_lag1[2][i], ck.f_lag1[2][i]);
      ASSERT_EQ(back.g_lag0[i], ck.g_lag0[i]);
    }
    ASSERT_EQ(back.projection.basis.size(), ck.projection.basis.size());
    for (usize k = 0; k < ck.projection.basis.size(); ++k)
      for (usize i = 0; i < ck.projection.basis[k].size(); ++i) {
        ASSERT_EQ(back.projection.basis[k][i], ck.projection.basis[k][i]);
        ASSERT_EQ(back.projection.a_basis[k][i], ck.projection.a_basis[k][i]);
      }
    EXPECT_EQ(back.solver_stats.info.pressure_iterations,
              ck.solver_stats.info.pressure_iterations);
    EXPECT_EQ(back.solver_stats.info.pressure_residual,
              ck.solver_stats.info.pressure_residual);
  }
}

TEST(Checkpoint, LosslessEncodingShrinksBlob) {
  comm::SelfComm comm;
  Case c = make_case(comm, true);
  for (int s = 0; s < 3; ++s) c.sim->step();
  const Checkpoint ck = capture_checkpoint(c.sim->solver());
  const auto raw = ck.serialize(false);
  const auto coded = ck.serialize(true);
  EXPECT_LT(coded.size(), raw.size());
}

TEST(Checkpoint, KnownAnswerPinsTheOnDiskFormat) {
  // Byte counts and CRC-32s of both container flavours: any change to the
  // section layout, the Huffman coder or the checksum shows up here.
  const Checkpoint ck = tiny_checkpoint();
  const auto coded = ck.serialize(true);
  EXPECT_EQ(coded.size(), 1309u);
  EXPECT_EQ(crc32(coded), 0x8BB36A2Au);
  const auto raw = ck.serialize(false);
  EXPECT_EQ(raw.size(), 1864u);
  EXPECT_EQ(crc32(raw), 0x2556D222u);
}

TEST(Checkpoint, FileRoundTrip) {
  comm::SelfComm comm;
  Case c = make_case(comm, false);
  for (int s = 0; s < 4; ++s) c.sim->step();
  const Checkpoint ck = capture_checkpoint(c.sim->solver());
  const std::string path = test::scratch_path("felis_checkpoint_test.ck");
  ck.save(path);
  const Checkpoint back = Checkpoint::load(path);
  EXPECT_EQ(back.step, ck.step);
  for (usize i = 0; i < ck.u.size(); ++i) ASSERT_EQ(back.w[i], ck.w[i]);
  std::remove(path.c_str());
}

TEST(Checkpoint, RestartContinuesBitwiseWithoutProjection) {
  comm::SelfComm comm;
  // Reference: uninterrupted 12-step run.
  Case ref = make_case(comm, false);
  for (int s = 0; s < 12; ++s) ref.sim->step();

  // Checkpoint at step 6, restore into a FRESH solver, continue 6 more.
  Case first = make_case(comm, false);
  for (int s = 0; s < 6; ++s) first.sim->step();
  const Checkpoint ck = capture_checkpoint(first.sim->solver());

  Case second = make_case(comm, false);
  restore_checkpoint(second.sim->solver(), ck);
  EXPECT_EQ(second.sim->solver().step_count(), 6);
  for (int s = 0; s < 6; ++s) second.sim->step();

  const RealVec& a = ref.sim->solver().u();
  const RealVec& b = second.sim->solver().u();
  for (usize i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << "bitwise mismatch at dof " << i;
  const RealVec& ta = ref.sim->solver().temperature();
  const RealVec& tb = second.sim->solver().temperature();
  for (usize i = 0; i < ta.size(); ++i) ASSERT_EQ(ta[i], tb[i]);
  EXPECT_EQ(ref.sim->solver().time(), second.sim->solver().time());
}

TEST(Checkpoint, RestartWithProjectionContinuesBitwise) {
  // The projection basis feeds the pressure initial guesses, so it is part
  // of the serialized state: a restart with projection enabled must also
  // continue the original trajectory bit-for-bit (it used to agree only to
  // solver tolerance when the basis was dropped).
  comm::SelfComm comm;
  Case ref = make_case(comm, true);
  for (int s = 0; s < 12; ++s) ref.sim->step();

  Case first = make_case(comm, true);
  for (int s = 0; s < 6; ++s) first.sim->step();
  const Checkpoint ck = capture_checkpoint(first.sim->solver());
  ASSERT_TRUE(ck.projection.present);
  ASSERT_GT(ck.projection.basis.size(), 0u);

  Case second = make_case(comm, true);
  // Round-trip through bytes so the serialized projection state is what is
  // actually exercised, not the in-memory copy.
  const Checkpoint restored = Checkpoint::deserialize(ck.serialize(true));
  restore_checkpoint(second.sim->solver(), restored);
  ASSERT_EQ(second.sim->solver().pressure_projection()->basis_size(),
            first.sim->solver().pressure_projection()->basis_size());
  for (int s = 0; s < 6; ++s) second.sim->step();

  const RealVec& a = ref.sim->solver().u();
  const RealVec& b = second.sim->solver().u();
  for (usize i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << "bitwise mismatch at dof " << i;
  const RealVec& ta = ref.sim->solver().temperature();
  const RealVec& tb = second.sim->solver().temperature();
  for (usize i = 0; i < ta.size(); ++i) ASSERT_EQ(ta[i], tb[i]);
  EXPECT_EQ(ref.sim->solver().time(), second.sim->solver().time());
}

TEST(Checkpoint, RejectsCorruptAndMismatched) {
  comm::SelfComm comm;
  Case c = make_case(comm, false);
  c.sim->step();
  const Checkpoint ck = capture_checkpoint(c.sim->solver());
  auto blob = ck.serialize(false);
  // Corrupt the magic.
  blob[0] = std::byte{0x00};
  EXPECT_THROW(Checkpoint::deserialize(blob), Error);
  // Truncated payload.
  auto good = ck.serialize(false);
  good.resize(good.size() / 2);
  EXPECT_THROW(Checkpoint::deserialize(good), Error);
  // Mismatched mesh: restoring into a smaller solver must throw.
  mesh::BoxMeshConfig small;
  small.nx = small.ny = small.nz = 3;
  const mesh::HexMesh mesh2 = make_box_mesh(small);
  auto fine2 = operators::make_rank_setup(mesh2, 2, comm, true);
  auto coarse2 = precon::make_coarse_setup(mesh2, comm);
  FlowConfig fc;
  FlowSolver other(fine2.ctx(), coarse2.ctx(), fc);
  EXPECT_THROW(restore_checkpoint(other, ck), Error);
  // Missing file.
  EXPECT_THROW(Checkpoint::load("/tmp/felis_no_such_checkpoint.ck"), Error);
}

TEST(Checkpoint, FuzzEveryTruncationAndByteFlipThrowsCleanly) {
  const Checkpoint ck = tiny_checkpoint();
  for (const bool coded : {false, true}) {
    const auto blob = ck.serialize(coded);
    // Every prefix truncation: missing bytes must never be read past.
    for (usize len = 0; len < blob.size(); ++len) {
      const std::vector<std::byte> trunc(blob.begin(),
                                         blob.begin() +
                                             static_cast<std::ptrdiff_t>(len));
      EXPECT_THROW(Checkpoint::deserialize(trunc), Error)
          << "coded=" << coded << " truncation at " << len;
    }
    // Every single-byte flip: each byte on disk is CRC-covered, so silent
    // bitrot anywhere in the file must be detected, never deserialized.
    for (usize i = 0; i < blob.size(); ++i) {
      auto flipped = blob;
      flipped[i] ^= std::byte{0xff};
      EXPECT_THROW(Checkpoint::deserialize(flipped), Error)
          << "coded=" << coded << " flip at byte " << i;
    }
  }
}

TEST(Checkpoint, HostileLengthFieldCannotOverflowTheBoundsCheck) {
  // A state section whose clock-field length is 2^64-1: the old check
  // `pos + n * sizeof(real_t) <= size` wraps and passes, then memcpy reads
  // out of bounds. The division-based check must reject it cleanly.
  std::vector<std::byte> state;
  push_u64(state, 7);                       // step
  push_u64(state, 0xffffffffffffffffull);   // clock length: hostile
  std::vector<std::byte> sections;
  push_u64(sections, 1);  // section id: state
  push_u64(sections, state.size());
  push_u64(sections, crc32(state));
  sections.insert(sections.end(), state.begin(), state.end());
  const auto blob = craft_container(sections);
  try {
    Checkpoint::deserialize(blob);
    FAIL() << "hostile length field was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("overruns"), std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, UnknownCompressionFlagAndBadMagicNameTheFile) {
  const Checkpoint ck = tiny_checkpoint();
  const std::string dir = test::scratch_path("felis_ck_naming");
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Flag word 2 with an otherwise intact header: must produce the dedicated
  // "unknown compression flag" error naming the file, not a decode attempt.
  auto blob = ck.serialize(false);
  patch_u64(blob, kFlagsOffset, 2);
  patch_u64(blob, kHeaderCrcOffset, crc32(blob.data(), kHeaderCrcOffset));
  const std::string flag_path = dir + "/flag2.ckpt";
  io::atomic_write_file(flag_path, blob);
  try {
    Checkpoint::load(flag_path);
    FAIL() << "unknown flag word was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("compression flag"), std::string::npos) << what;
    EXPECT_NE(what.find(flag_path), std::string::npos) << what;
  }

  // Wrong magic (e.g. a v1 file or a foreign format): clear error, names
  // the file.
  auto bad_magic = ck.serialize(false);
  patch_u64(bad_magic, 0, 0x46454c4953434b31ull);  // "FELISCK1"
  const std::string magic_path = dir + "/old.ckpt";
  io::atomic_write_file(magic_path, bad_magic);
  try {
    Checkpoint::load(magic_path);
    FAIL() << "bad magic was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("magic"), std::string::npos) << what;
    EXPECT_NE(what.find(magic_path), std::string::npos) << what;
  }
  fs::remove_all(dir);
}

TEST(Checkpoint, RejectsTrailingBytesAfterLastSection) {
  const auto good = tiny_checkpoint().serialize(false);
  // Re-wrap the section stream with one stray byte appended and all CRCs
  // recomputed: only the trailing-bytes check can catch this.
  std::vector<std::byte> sections(
      good.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes), good.end());
  sections.push_back(std::byte{0x5a});
  const auto blob = craft_container(sections);
  try {
    Checkpoint::deserialize(blob);
    FAIL() << "trailing bytes were accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointInsitu, StreamCursorsAndPodStateRoundTrip) {
  // Producer/consumer cursors survive the byte round trip, and a restored
  // POD continues the stream bitwise-identically to an uninterrupted one.
  insitu::SnapshotStream stream(4);
  for (int i = 0; i < 3; ++i) stream.push(RealVec{1.0 * i, 2.0 * i});
  (void)stream.pop();
  (void)stream.pop();
  EXPECT_EQ(stream.pushed_total(), 3u);
  EXPECT_EQ(stream.popped_total(), 2u);

  const usize n = 8;
  RealVec weights(n, 1.0);
  insitu::StreamingPod pod(weights, 3);
  const auto snapshot = [n](int s) {
    RealVec x(n);
    for (usize i = 0; i < n; ++i)
      x[i] = std::sin(0.7 * static_cast<real_t>(s + 1) *
                      static_cast<real_t>(i + 1)) +
             0.1 * static_cast<real_t>(s);
    return x;
  };
  for (int s = 0; s < 5; ++s) pod.add_snapshot(snapshot(s));

  Checkpoint ck = tiny_checkpoint();
  attach_insitu_state(ck, stream, &pod);
  const Checkpoint back = Checkpoint::deserialize(ck.serialize(true));
  ASSERT_TRUE(back.insitu.present);
  EXPECT_EQ(back.insitu.pushed, 3u);
  EXPECT_EQ(back.insitu.popped, 2u);
  ASSERT_TRUE(back.insitu.has_pod);
  EXPECT_EQ(back.insitu.pod.count, 5u);

  // Drain the queue (simulating the consumer finishing before the restart),
  // then restore into fresh objects.
  (void)stream.pop();
  insitu::SnapshotStream stream2(4);
  insitu::StreamingPod pod2(weights, 3);
  restore_insitu_state(back, stream2, &pod2);
  EXPECT_EQ(stream2.pushed_total(), 3u);
  EXPECT_EQ(stream2.popped_total(), 2u);
  ASSERT_EQ(pod2.rank(), pod.rank());
  EXPECT_EQ(pod2.snapshot_count(), 5u);
  for (int s = 5; s < 8; ++s) {
    pod.add_snapshot(snapshot(s));
    pod2.add_snapshot(snapshot(s));
  }
  ASSERT_EQ(pod2.rank(), pod.rank());
  for (usize k = 0; k < pod.rank(); ++k) {
    ASSERT_EQ(pod2.singular_values()[k], pod.singular_values()[k]);
    const RealVec ma = pod.mode(k);
    const RealVec mb = pod2.mode(k);
    for (usize i = 0; i < n; ++i) ASSERT_EQ(ma[i], mb[i]);
  }
  EXPECT_EQ(pod2.captured_energy(2), pod.captured_energy(2));
}

TEST(FaultInjectorConfig, ParsesParamsAndEnvironment) {
  const ParamMap params =
      ParamMap::parse("fault.mode = truncate\nfault.at = 3\nfault.offset = 99");
  const auto c = io::FaultInjector::config_from_params(params);
  EXPECT_EQ(c.mode, io::FaultInjector::Mode::kTruncate);
  EXPECT_EQ(c.at, 3);
  EXPECT_EQ(c.count, 1);
  EXPECT_EQ(c.offset, 99u);

  ASSERT_EQ(::setenv("FELIS_FAULT_INJECT", "mode=corrupt; at=2; count=4; offset=64", 1), 0);
  const auto env = io::FaultInjector::config_from_env();
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->mode, io::FaultInjector::Mode::kCorrupt);
  EXPECT_EQ(env->at, 2);
  EXPECT_EQ(env->count, 4);
  EXPECT_EQ(env->offset, 64u);
  // The environment spells the fault.* keys bare; any other key is an error
  // naming it and the nearest declared one.
  ASSERT_EQ(::setenv("FELIS_FAULT_INJECT", "mdoe=crash", 1), 0);
  try {
    io::FaultInjector::config_from_env();
    ADD_FAILURE() << "an undeclared key was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'fault.mdoe' (did you mean 'fault.mode'?)"),
              std::string::npos)
        << e.what();
  }
  ASSERT_EQ(::unsetenv("FELIS_FAULT_INJECT"), 0);
  EXPECT_FALSE(io::FaultInjector::config_from_env().has_value());

  EXPECT_THROW(io::FaultInjector::config_from_params(
                   ParamMap::parse("fault.mode = explode")),
               Error);
  EXPECT_THROW(io::FaultInjector::config_from_params(ParamMap::parse("fault.at = 0")),
               Error);
}

class CheckpointManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::test_scratch_dir("felis_mgr_");
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  CheckpointConfig config() const {
    CheckpointConfig c;
    c.directory = dir_;
    c.keep = 3;
    c.retry_backoff_ms = 1;
    return c;
  }

  std::string dir_;
};

TEST_F(CheckpointManagerTest, RotationKeepsNewest) {
  CheckpointManager manager(config());
  for (std::int64_t s = 1; s <= 5; ++s) manager.write(tiny_checkpoint(s));
  const auto files = manager.list();
  ASSERT_EQ(files.size(), 3u);
  std::string path;
  const auto latest = manager.load_latest(&path);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->step, 5);
  EXPECT_EQ(path, manager.path_for_step(5));
}

TEST_F(CheckpointManagerTest, RetriesTransientWriteFailures) {
  io::FaultInjector fault(
      {io::FaultInjector::Mode::kFailWrite, /*at=*/1, /*count=*/2, 0});
  CheckpointManager manager(config(), &fault);
  const std::string path = manager.write(tiny_checkpoint(7));
  EXPECT_EQ(fault.writes_observed(), 3);
  EXPECT_EQ(fault.faults_fired(), 2);
  EXPECT_EQ(Checkpoint::load(path).step, 7);
}

TEST_F(CheckpointManagerTest, WriteFailsAfterRetriesExhausted) {
  io::FaultInjector fault(
      {io::FaultInjector::Mode::kFailWrite, /*at=*/1, /*count=*/10, 0});
  auto cfg = config();
  cfg.max_retries = 2;
  CheckpointManager manager(cfg, &fault);
  EXPECT_THROW(manager.write(tiny_checkpoint(1)), Error);
  EXPECT_EQ(fault.writes_observed(), 3);  // initial attempt + 2 retries
}

TEST_F(CheckpointManagerTest, RecoversFromSilentlyCorruptedNewest) {
  io::FaultInjector fault(
      {io::FaultInjector::Mode::kCorrupt, /*at=*/2, /*count=*/1, /*offset=*/80});
  CheckpointManager manager(config(), &fault);
  manager.write(tiny_checkpoint(1));
  manager.write(tiny_checkpoint(2));  // "succeeds", but the file is bit-rotted
  EXPECT_EQ(manager.list().size(), 2u);
  EXPECT_THROW(Checkpoint::load(manager.path_for_step(2)), Error);
  std::string path;
  const auto latest = manager.load_latest(&path);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->step, 1);
  EXPECT_EQ(path, manager.path_for_step(1));
}

TEST_F(CheckpointManagerTest, RecoversFromTornWrite) {
  io::FaultInjector fault(
      {io::FaultInjector::Mode::kTruncate, /*at=*/2, /*count=*/1, /*offset=*/100});
  CheckpointManager manager(config(), &fault);
  manager.write(tiny_checkpoint(1));
  EXPECT_THROW(manager.write(tiny_checkpoint(2)), io::InjectedCrash);
  // The torn file exists but fails its CRCs; recovery falls back to step 1.
  ASSERT_TRUE(fs::exists(manager.path_for_step(2)));
  CheckpointManager reborn(config());
  const auto latest = reborn.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->step, 1);
}

TEST_F(CheckpointManagerTest, CrashBeforeRenameLeavesPreviousIntact) {
  io::FaultInjector fault(
      {io::FaultInjector::Mode::kCrash, /*at=*/2, /*count=*/1, 0});
  CheckpointManager manager(config(), &fault);
  manager.write(tiny_checkpoint(1));
  EXPECT_THROW(manager.write(tiny_checkpoint(2)), io::InjectedCrash);
  // The new checkpoint only ever existed as a tmp file.
  EXPECT_FALSE(fs::exists(manager.path_for_step(2)));
  EXPECT_TRUE(fs::exists(manager.path_for_step(2) + ".tmp"));
  CheckpointManager reborn(config());
  const auto latest = reborn.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->step, 1);
}

TEST_F(CheckpointManagerTest, DueFollowsEverySetting) {
  auto cfg = config();
  cfg.every = 4;
  CheckpointManager manager(cfg);
  EXPECT_FALSE(manager.due(0));
  EXPECT_FALSE(manager.due(3));
  EXPECT_TRUE(manager.due(4));
  EXPECT_TRUE(manager.due(8));
  CheckpointManager manual(config());
  EXPECT_FALSE(manual.due(4));
}

TEST_F(CheckpointManagerTest, KilledRunAutoRecoversBitwise) {
  // The acceptance scenario end-to-end: checkpoint at step 4, killed by the
  // fault injector while writing at step 8, auto-recovered from the newest
  // valid checkpoint, and the continuation reproduces the uninterrupted
  // run's fields bitwise at step 10 — with the projection space enabled.
  comm::SelfComm comm;
  Case ref = make_case(comm, true);
  for (int s = 0; s < 10; ++s) ref.sim->step();

  // First life: dies between the tmp write and the rename at step 8.
  io::FaultInjector fault(
      {io::FaultInjector::Mode::kCrash, /*at=*/2, /*count=*/1, 0});
  auto cfg = config();
  cfg.every = 4;
  {
    CheckpointManager manager(cfg, &fault);
    Case first = make_case(comm, true);
    bool died = false;
    for (int s = 0; s < 10 && !died; ++s) {
      first.sim->step();
      try {
        first.sim->maybe_checkpoint(manager);
      } catch (const io::InjectedCrash&) {
        died = true;  // the "process" is gone; nothing else may run
      }
    }
    ASSERT_TRUE(died);
  }

  // Second life: fresh everything, automatic recovery, then catch up.
  CheckpointManager manager(cfg);
  Case second = make_case(comm, true);
  ASSERT_TRUE(second.sim->restore_latest(manager));
  EXPECT_EQ(second.sim->solver().step_count(), 4);
  while (second.sim->solver().step_count() < 10) second.sim->step();

  const RealVec& a = ref.sim->solver().u();
  const RealVec& b = second.sim->solver().u();
  for (usize i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << "bitwise mismatch at dof " << i;
  const RealVec& ta = ref.sim->solver().temperature();
  const RealVec& tb = second.sim->solver().temperature();
  for (usize i = 0; i < ta.size(); ++i) ASSERT_EQ(ta[i], tb[i]);
  EXPECT_EQ(ref.sim->solver().time(), second.sim->solver().time());
}

}  // namespace
}  // namespace felis::fluid
