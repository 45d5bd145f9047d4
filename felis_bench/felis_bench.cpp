// felis_bench: the measurement process behind felis_bench.py.
//
// One invocation runs one workload once and prints one JSON object (the raw
// samples) on stdout; felis_bench.py turns those into metrics and checks
// them. The solver is reached only through public entry points:
// cases::build_case + Case::step for step workloads, sched::Scheduler with
// sched::make_case_runner() for the campaign. Nothing inside src/ is
// instrumented: the traced run times calls into each layer from here.
//
//   felis_bench step     --case FILE --ranks R --warmup W --window M
//                        [--seed S] [--trace] [--setup-only]
//                        [--replays N] [--scratch DIR] [--set key=value]...
//   felis_bench campaign --case FILE --scratch DIR [--seed S] [--trace]
//                        [--setup-only] [--probe-steps K] [--replays N]
//                        [--set key=value]...
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "case/registry.hpp"
#include "comm/comm.hpp"
#include "common/params.hpp"
#include "device/backend.hpp"
#include "device/stream.hpp"
#include "fluid/checkpoint_manager.hpp"
#include "fluid/time_scheme.hpp"
#include "krylov/cg.hpp"
#include "krylov/gmres.hpp"
#include "operators/ops.hpp"
#include "precon/coarse.hpp"
#include "sched/case_runner.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/chrome_trace.hpp"

using namespace felis;

namespace {

using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const usize n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---- JSON output -----------------------------------------------------------

/// All digits, and null for a non-finite value so felis_bench.py flags it.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  return "\"" + telemetry::json_escape(s) + "\"";
}

template <typename T>
std::string json_array(const std::vector<T>& v) {
  std::string out = "[";
  for (usize i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += json_number(static_cast<double>(v[i]));
  }
  return out + "]";
}

std::string json_object(const Metrics& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ',';
    out += json_string(k) + ":" + json_number(v);
  }
  return out + "}";
}

/// Key order is insertion order; values are already JSON.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + json_string(key) + ":" + json;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return add(key, json_number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return add(key, json_string(v));
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- command line ------------------------------------------------------------

struct Options {
  std::string mode;
  std::string case_file;
  std::string scratch = ".";
  int seed = 7;
  int ranks = 1;
  int warmup = 0;
  int window = 0;
  int replays = 20;
  int probe_steps = 10;
  bool trace = false;
  bool setup_only = false;
  std::vector<std::pair<std::string, std::string>> overrides;
};

int to_int(const std::string& flag, const std::string& v) {
  try {
    usize used = 0;
    const int n = std::stoi(v, &used);
    if (used == v.size()) return n;
  } catch (const std::exception&) {
  }
  throw Error("felis_bench: " + flag + " needs an integer, got '" + v + "'");
}

Options parse_options(int argc, char** argv) {
  Options o;
  if (argc < 2) throw Error("felis_bench: usage: felis_bench step|campaign ...");
  o.mode = argv[1];
  if (o.mode != "step" && o.mode != "campaign")
    throw Error("felis_bench: unknown mode '" + o.mode + "'");
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      o.trace = true;
      continue;
    }
    if (flag == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) throw Error("felis_bench: " + flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--case") {
      o.case_file = v;
    } else if (flag == "--scratch") {
      o.scratch = v;
    } else if (flag == "--seed") {
      o.seed = to_int(flag, v);
    } else if (flag == "--ranks") {
      o.ranks = to_int(flag, v);
    } else if (flag == "--warmup") {
      o.warmup = to_int(flag, v);
    } else if (flag == "--window") {
      o.window = to_int(flag, v);
    } else if (flag == "--replays") {
      o.replays = to_int(flag, v);
    } else if (flag == "--probe-steps") {
      o.probe_steps = to_int(flag, v);
    } else if (flag == "--set") {
      const usize eq = v.find('=');
      if (eq == std::string::npos || eq == 0)
        throw Error("felis_bench: --set needs key=value, got '" + v + "'");
      o.overrides.emplace_back(v.substr(0, eq), v.substr(eq + 1));
    } else {
      throw Error("felis_bench: unknown flag '" + flag + "'");
    }
  }
  if (o.case_file.empty()) throw Error("felis_bench: --case is required");
  if (o.replays < 1 || o.probe_steps < 1)
    throw Error("felis_bench: --replays and --probe-steps must be >= 1");
  if (o.mode == "step" && (o.ranks < 1 || o.warmup < 1 || o.window < 1))
    throw Error("felis_bench: --ranks, --warmup and --window must be >= 1");
  return o;
}

/// The workload's case or campaign file, with the run's seed and overrides.
ParamMap load_params(const Options& o) {
  std::ifstream in(o.case_file);
  if (!in) throw Error("felis_bench: cannot read " + o.case_file);
  std::stringstream text;
  text << in.rdbuf();
  ParamMap params = ParamMap::parse(text.str());
  params.set("case.seed", o.seed);
  for (const auto& [key, value] : o.overrides) params.set(key, value);
  return params;
}

// ---- the step timer and the phase reader -----------------------------------

struct StepSample {
  double seconds = 0;
  fluid::StepInfo info;
};

/// The one way this harness times steps: `n` calls of Case::step, each
/// timed on its own.
void timed_steps(cases::Case& sim, int n, std::vector<StepSample>& out) {
  for (int i = 0; i < n; ++i) {
    const Clock::time_point t0 = Clock::now();
    const fluid::StepInfo info = sim.step();
    out.push_back({since(t0), info});
  }
}

/// Inclusive time and computed counters of one Profiler region.
struct Phase {
  double seconds = 0;
  double flops = 0;
  double bytes = 0;
};

void collect_phases(const RegionNode& node, const std::string& path,
                    std::map<std::string, Phase>& out) {
  for (const auto& [name, child] : node.children) {
    const std::string p = path.empty() ? name : path + "/" + name;
    const OpCounters c = child->inclusive_counters();
    out[p] = {child->seconds, c.flops, c.bytes};
    collect_phases(*child, p, out);
  }
}

/// Snapshot of every region of the solver's Profiler tree, by path.
std::map<std::string, Phase> read_phases(const Profiler& prof) {
  std::map<std::string, Phase> out;
  collect_phases(prof.root(), "", out);
  return out;
}

Phase phase_delta(const std::map<std::string, Phase>& before,
                  const std::map<std::string, Phase>& after,
                  const std::string& path) {
  const auto a = after.find(path);
  if (a == after.end()) return {};
  Phase d = a->second;
  const auto b = before.find(path);
  if (b != before.end()) {
    d.seconds -= b->second.seconds;
    d.flops -= b->second.flops;
    d.bytes -= b->second.bytes;
  }
  return d;
}

/// Why a step's report is not a healthy one ("" when it is). StepInfo has no
/// per-solve convergence flags, so the pressure solve is judged by its final
/// residual and the CG solves by their iteration caps.
std::string step_problem(const fluid::StepInfo& info,
                         const fluid::FlowConfig& config) {
  if (!std::isfinite(info.cfl) || !std::isfinite(info.pressure_residual) ||
      !std::isfinite(info.divergence))
    return "non-finite StepInfo";
  if (info.pressure_residual > config.pressure_control.abs_tol)
    return "pressure GMRES unconverged (residual " +
           json_number(info.pressure_residual) + ")";
  if (info.velocity_iterations >= config.velocity_control.max_iterations)
    return "velocity CG reached its iteration cap";
  if (info.scalar_iterations >= config.scalar_control.max_iterations)
    return "scalar CG reached its iteration cap";
  return "";
}

// ---- FNV-1a state digest ----------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, const void* data, usize bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (usize i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

std::uint64_t state_digest(const fluid::FlowSolver& s) {
  std::uint64_t h = kFnvOffset;
  for (const RealVec* f :
       {&s.u(), &s.v(), &s.w(), &s.temperature(), &s.pressure()})
    h = fnv1a(h, f->data(), f->size() * sizeof(real_t));
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---- comm decorator (traced runs) ---------------------------------------------

struct CommCounts {
  double allreduces = 0;
  double messages = 0;
  double bytes = 0;
  double wait_seconds = 0;
};

/// Forwards every call to the rank's communicator and counts what passes:
/// allreduces, point-to-point messages and bytes, and the time blocked in
/// recv_bytes, allreduce and barrier. Atomic because the task-overlapped
/// preconditioner communicates from its coarse stream thread too.
class CountingComm final : public comm::Communicator {
 public:
  explicit CountingComm(comm::Communicator& inner) : inner_(inner) {}

  int rank() const override { return inner_.rank(); }
  int size() const override { return inner_.size(); }
  void barrier() override {
    const Clock::time_point t0 = Clock::now();
    inner_.barrier();
    wait(t0);
  }
  void allreduce(real_t* data, usize count, comm::ReduceOp op) override {
    allreduces_.fetch_add(1, std::memory_order_relaxed);
    const Clock::time_point t0 = Clock::now();
    inner_.allreduce(data, count, op);
    wait(t0);
  }
  void allreduce(gidx_t* data, usize count, comm::ReduceOp op) override {
    allreduces_.fetch_add(1, std::memory_order_relaxed);
    const Clock::time_point t0 = Clock::now();
    inner_.allreduce(data, count, op);
    wait(t0);
  }
  std::vector<std::vector<std::byte>> allgatherv_bytes(
      const std::vector<std::byte>& mine) override {
    return inner_.allgatherv_bytes(mine);
  }
  void send_bytes(int dest, int tag, const void* data, usize bytes) override {
    messages_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(static_cast<std::int64_t>(bytes), std::memory_order_relaxed);
    inner_.send_bytes(dest, tag, data, bytes);
  }
  std::vector<std::byte> recv_bytes(int source, int tag) override {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::byte> out = inner_.recv_bytes(source, tag);
    wait(t0);
    return out;
  }

  CommCounts counts() const {
    return {static_cast<double>(allreduces_.load()),
            static_cast<double>(messages_.load()),
            static_cast<double>(bytes_.load()),
            1e-9 * static_cast<double>(wait_ns_.load())};
  }

 private:
  void wait(Clock::time_point t0) {
    wait_ns_.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count(),
        std::memory_order_relaxed);
  }

  comm::Communicator& inner_;
  std::atomic<std::int64_t> allreduces_{0}, messages_{0}, bytes_{0}, wait_ns_{0};
};

// ---- traced run: per-layer numbers from outside --------------------------------

/// Median seconds of `n` calls of `call`, each preceded by an untimed `prep`.
/// Collective calls stay in lockstep because every rank replays the same
/// sequence.
template <typename Prep, typename Call>
double replay(int n, Prep&& prep, Call&& call) {
  std::vector<double> t;
  for (int i = 0; i < n; ++i) {
    prep();
    const Clock::time_point t0 = Clock::now();
    call();
    t.push_back(since(t0));
  }
  return median(t);
}

template <typename Call>
double replay(int n, Call&& call) {
  return replay(n, [] {}, call);
}

/// Step `steps` steps with the Profiler tree, the comm counters and a stream
/// TraceRecorder on the pressure preconditioner read around them; returns
/// the fluid, precon, krylov and comm metrics of that window.
Metrics trace_window(cases::CaseSetup& s, CountingComm& comm, int steps,
                     std::vector<StepSample>& samples) {
  cases::Case& sim = *s.sim;
  precon::HsmgPrecon& hsmg = sim.solver().pressure_preconditioner();
  device::TraceRecorder recorder;
  recorder.start();
  hsmg.set_trace(&recorder);
  const std::map<std::string, Phase> p0 = read_phases(*s.fine.prof);
  const CommCounts c0 = comm.counts();
  const usize first = samples.size();
  timed_steps(sim, steps, samples);
  const CommCounts c1 = comm.counts();
  const std::map<std::string, Phase> p1 = read_phases(*s.fine.prof);
  hsmg.set_trace(nullptr);

  Metrics m;
  const double n = steps;
  const Phase step = phase_delta(p0, p1, "step");
  double phases = 0;
  for (const char* name : {"forcing", "pressure", "velocity", "scalar"}) {
    const double sec = phase_delta(p0, p1, std::string("step/") + name).seconds;
    phases += sec;
    m[std::string("fluid.") + name + "_ms"] = 1e3 * sec / n;
    m[std::string("fluid.") + name + "_share"] = sec / step.seconds;
  }
  m["fluid.other_ms"] = 1e3 * (step.seconds - phases) / n;
  m["fluid.other_share"] = (step.seconds - phases) / step.seconds;
  const Phase pressure = phase_delta(p0, p1, "step/pressure");
  m["fluid.pressure_gflops"] = 1e-9 * pressure.flops / pressure.seconds;
  m["fluid.step_gbytes_per_s"] = 1e-9 * step.bytes / step.seconds;

  double it_p = 0, it_v = 0, it_s = 0;
  for (usize i = first; i < samples.size(); ++i) {
    it_p += samples[i].info.pressure_iterations;
    it_v += samples[i].info.velocity_iterations;
    it_s += samples[i].info.scalar_iterations;
  }
  m["krylov.pressure_iters"] = it_p / n;
  m["krylov.velocity_iters"] = it_v / n;
  m["krylov.scalar_iters"] = it_s / n;

  double coarse = 0, schwarz = 0;
  for (const device::TraceEvent& e : recorder.events()) {
    if (e.name == "coarse") coarse += e.t_end - e.t_begin;
    if (e.name == "schwarz") schwarz += e.t_end - e.t_begin;
  }
  m["precon.coarse_ms"] = 1e3 * coarse / n;
  m["precon.schwarz_ms"] = 1e3 * schwarz / n;
  // Serial mode has no overlapped region: the two terms run back to back.
  const bool overlapped = p1.count("step/pressure/overlapped") > 0;
  const double both = overlapped
                          ? phase_delta(p0, p1, "step/pressure/overlapped").seconds
                          : coarse + schwarz;
  m["precon.overlap_saving"] = 1.0 - both / (coarse + schwarz);

  m["comm.allreduces_per_step"] = (c1.allreduces - c0.allreduces) / n;
  m["comm.messages_per_step"] = (c1.messages - c0.messages) / n;
  m["comm.kbytes_per_step"] = 1e-3 * (c1.bytes - c0.bytes) / n;
  m["comm.wait_ms_per_step"] = 1e3 * (c1.wait_seconds - c0.wait_seconds) / n;
  return m;
}

/// Replays of single-layer calls on the warmed state (after the window and
/// the digest). Every rank calls this; rank 0's numbers are reported.
Metrics replay_layers(cases::CaseSetup& s, comm::Communicator& comm, int n,
                      const std::string& scratch) {
  cases::Case& sim = *s.sim;
  fluid::FlowSolver& solver = sim.solver();
  const fluid::FlowConfig& config = solver.config();
  const operators::Context ctx = s.fine.ctx();
  device::Backend& dev = ctx.dev();
  const usize nd = ctx.num_dofs();
  const RealVec& mass = ctx.coef->mass;
  const real_t h2 = fluid::imex_coefficients(config.max_order).b0 / config.dt;
  constexpr int kIterations = 10;  // fixed Krylov work per replayed solve
  const krylov::SolveControl fixed{0.0, 0.0, kIterations};
  Metrics m;

  // Velocity Helmholtz operator and its block-Jacobi preconditioner, as the
  // velocity solve builds them.
  krylov::HelmholtzOperator vel_op(ctx, config.viscosity, h2,
                                   krylov::make_mask(ctx, config.velocity_walls));
  krylov::JacobiPrecon jacobi(
      operators::diag_helmholtz(ctx, config.viscosity, h2), ctx.backend);
  RealVec out(nd), x(nd);
  m["krylov.helmholtz_apply_us"] =
      1e6 * replay(n, [&] { vel_op.apply(solver.w(), out); });

  RealVec rhs_v(nd);
  for (usize i = 0; i < nd; ++i) rhs_v[i] = mass[i] * solver.w()[i] / config.dt;
  ctx.gs->apply(rhs_v, gs::GsOp::kAdd);
  krylov::apply_mask(rhs_v, vel_op.masked_dofs());
  const krylov::CgSolver cg(ctx);
  int cg_its = 1;
  const double cg_call = replay(
      n, [&] { operators::vec_fill(dev, 0.0, x); },
      [&] { cg_its = cg.solve(vel_op, jacobi, rhs_v, x, fixed).iterations; });
  m["krylov.cg_iter_us"] = 1e6 * cg_call / std::max(cg_its, 1);

  // Pressure: the solver's own HSMG on a right-hand side built from the
  // current velocity, as the pressure step builds it.
  precon::HsmgPrecon& hsmg = solver.pressure_preconditioner();
  krylov::HelmholtzOperator p_op(ctx, 1.0, 0.0, {});
  const krylov::GmresSolver gmres(ctx, config.gmres_restart);
  RealVec rhs_p(nd);
  operators::div_weak(ctx, solver.u(), solver.v(), solver.w(), rhs_p);
  ctx.gs->apply(rhs_p, gs::GsOp::kAdd);
  operators::vec_scale(dev, 1.0 / config.dt, rhs_p);
  operators::remove_null_component(ctx, rhs_p);
  int gmres_its = 1;
  const double gmres_call = replay(
      n, [&] { operators::vec_fill(dev, 0.0, x); },
      [&] {
        gmres_its =
            gmres.solve(p_op, hsmg, rhs_p, x, fixed, true).iterations;
      });
  m["krylov.gmres_iter_ms"] = 1e3 * gmres_call / std::max(gmres_its, 1);

  const precon::OverlapMode mode = hsmg.mode();
  hsmg.set_mode(precon::OverlapMode::kTaskParallel);
  m["precon.hsmg_apply_ms"] = 1e3 * replay(n, [&] { hsmg.apply(rhs_p, out); });
  hsmg.set_mode(precon::OverlapMode::kSerial);
  m["precon.hsmg_apply_serial_ms"] =
      1e3 * replay(n, [&] { hsmg.apply(rhs_p, out); });
  hsmg.set_mode(mode);
  m["precon.coarse_setup_ms"] = 1e3 * replay(n, [&] {
    precon::make_coarse_setup(s.geometry.mesh, comm, s.fine.backend);
  });

  // Operators, with a private Profiler so their computed flops are exact.
  Profiler counter;
  operators::Context counted = ctx;
  counted.prof = &counter;
  m["operators.ax_us"] = 1e6 * replay(n, [&] {
    operators::ax_helmholtz(counted, solver.temperature(), out,
                            config.conductivity, h2);
  });
  m["operators.ax_gflops"] =
      1e-9 * counter.root().inclusive_counters().flops / n /
      (1e-6 * m["operators.ax_us"]);
  RealVec dx(nd), dy(nd), dz(nd);
  m["operators.grad_us"] = 1e6 * replay(n, [&] {
    operators::grad(ctx, solver.temperature(), dx, dy, dz);
  });
  operators::Advector advector(ctx);
  std::array<RealVec, 4> adv_out;
  m["operators.advect_ms"] = 1e3 * replay(
      n,
      [&] {
        for (RealVec& f : adv_out) f.assign(nd, 0.0);
      },
      [&] {
        advector.set_velocity(solver.u(), solver.v(), solver.w());
        const RealVec* fields[4] = {&solver.u(), &solver.v(), &solver.w(),
                                    &solver.temperature()};
        for (usize c = 0; c < 4; ++c) advector.apply(*fields[c], adv_out[c], -1.0);
      });

  // Gather-scatter, on a fresh copy each call so values stay bounded.
  Profiler gs_counter;
  RealVec buf;
  m["gs.apply_us"] =
      1e6 * replay(
                n, [&] { buf = solver.temperature(); },
                [&] { ctx.gs->apply(buf, gs::GsOp::kAdd, &gs_counter); });
  m["gs.gbytes_per_s"] = 1e-9 * gs_counter.root().inclusive_counters().bytes /
                         n / (1e-6 * m["gs.apply_us"]);
  m["gs.doubles_sent"] = static_cast<double>(ctx.gs->send_doubles_per_apply());

  m["case.observables_ms"] = 1e3 * replay(n, [&] { (void)sim.observables(); });

  // Local work only from here on: rank 0 alone.
  if (comm.rank() != 0) return m;
  m["case.capture_ms"] =
      1e3 * replay(n, [&] { (void)sim.capture_checkpoint(); });
  fluid::CheckpointConfig ck;
  ck.directory = (std::filesystem::path(scratch) / "checkpoint_replay").string();
  ck.basename = "bench";
  fluid::CheckpointManager manager(ck);
  const fluid::Checkpoint state = sim.capture_checkpoint();
  // A compressed, fsync'd write of a warmed state takes about a second, so
  // the I/O replays are capped to keep a traced run within its time budget.
  const int io_calls = std::min(n, 5);
  std::string path;
  m["io.checkpoint_write_ms"] =
      1e3 * replay(io_calls, [&] { path = manager.write(state); });
  m["io.checkpoint_mb"] =
      1e-6 * static_cast<double>(std::filesystem::file_size(path));
  m["io.checkpoint_load_ms"] =
      1e3 * replay(io_calls, [&] { (void)manager.load_latest(); });
  std::filesystem::remove_all(ck.directory);
  return m;
}

/// Sched-layer metrics on a workload that does not run the scheduler.
void add_idle_sched(Metrics& m) {
  for (const char* k : {"sched.attempts", "sched.retries", "sched.utilisation",
                        "sched.queue_wait_share", "sched.recovery_share"})
    m[k] = 0;
}

// ---- step workloads -------------------------------------------------------------

struct StepRun {
  double setup_s = 0;
  double first_step_s = 0;
  double window_s = 0;
  double total_s = 0;
  double points = 0;
  std::vector<StepSample> samples;  ///< warm-up + window, rank 0
  int bad_steps = 0;                ///< steps with an unhealthy StepInfo
  std::string problem;              ///< the first of them
  std::string error;
  cases::Observables observables;
  std::vector<std::uint64_t> digests;  ///< per rank
  Metrics layers;
};

/// One rank of a step workload. Rank 0 fills `run`; every rank its digest.
void step_rank(const Options& o, const ParamMap& params, comm::Communicator& base,
               StepRun& run) {
  const Clock::time_point t0 = Clock::now();
  const bool lead = base.rank() == 0;
  std::unique_ptr<CountingComm> counting;
  if (o.trace) counting = std::make_unique<CountingComm>(base);
  comm::Communicator& comm = o.trace ? *counting : base;

  const cases::CaseInfo& info = cases::resolve_case(params);
  device::Backend& backend = device::select_backend(params);
  Metrics layers;
  if (o.trace) {
    // The first rank setup of the process pays the kernel tuner; build_case
    // below then reuses the tuned table (every variant is bitwise equal).
    const cases::Geometry geo = info.make_geometry(params);
    const Clock::time_point ts = Clock::now();
    operators::make_rank_setup(geo.mesh, geo.degree, comm, true, true, &backend);
    layers["operators.rank_setup_ms"] = 1e3 * since(ts);
  }
  const std::unique_ptr<cases::CaseSetup> setup =
      cases::build_case(info, params, comm, &backend);
  cases::Case& sim = *setup->sim;
  sim.set_initial_conditions();

  std::vector<StepSample> samples;
  std::string error;
  double window_s = 0;
  try {
    timed_steps(sim, 1, samples);
    if (lead) {
      run.setup_s = since(t0);
      run.first_step_s = samples.front().seconds;
    }
    if (!o.setup_only) {
      timed_steps(sim, o.warmup - 1, samples);
      const Clock::time_point tw = Clock::now();
      if (o.trace)
        layers.merge(trace_window(*setup, *counting, o.window, samples));
      else
        timed_steps(sim, o.window, samples);
      window_s = since(tw);
    }
  } catch (const std::exception& e) {
    error = e.what();
  }
  if (o.setup_only) {
    if (lead) run.error = error;
    return;
  }
  const double total_s = since(t0);
  const std::uint64_t digest = state_digest(sim.solver());
  const cases::Observables observables = sim.observables();
  if (o.trace && error.empty()) {
    layers.merge(replay_layers(*setup, comm, o.replays, o.scratch));
    layers["fluid.first_step_ms"] = 1e3 * samples.front().seconds;
    add_idle_sched(layers);
  }

  run.digests[static_cast<usize>(base.rank())] = digest;
  if (!lead) return;
  run.window_s = window_s;
  run.total_s = total_s;
  run.error = error;
  run.observables = observables;
  run.layers = layers;
  const int n = setup->geometry.degree + 1;
  run.points = static_cast<double>(setup->geometry.mesh.num_elements()) * n * n * n;
  for (const StepSample& s : samples) {
    const std::string why = step_problem(s.info, sim.solver().config());
    if (why.empty()) continue;
    if (run.bad_steps++ == 0)
      run.problem = "step " + std::to_string(s.info.step) + ": " + why;
  }
  run.samples = std::move(samples);
}

int run_step(const Options& o) {
  const ParamMap params = load_params(o);
  StepRun run;
  run.digests.assign(static_cast<usize>(o.ranks), 0);
  comm::run_parallel(o.ranks, [&](comm::Communicator& comm) {
    step_rank(o, params, comm, run);
  });

  JsonObject out;
  out.str("mode", o.setup_only ? "setup" : "step")
      .num("setup_s", run.setup_s)
      .num("first_step_s", run.first_step_s)
      .str("error", run.error);
  if (!o.setup_only) {
    std::uint64_t digest = kFnvOffset;
    for (const std::uint64_t d : run.digests) digest = fnv1a(digest, &d, sizeof(d));
    std::vector<double> seconds;
    std::vector<int> it_p, it_v, it_s;
    for (const StepSample& s : run.samples) {
      seconds.push_back(s.seconds);
      it_p.push_back(s.info.pressure_iterations);
      it_v.push_back(s.info.velocity_iterations);
      it_s.push_back(s.info.scalar_iterations);
    }
    Metrics observables(run.observables.begin(), run.observables.end());
    out.num("warmup", o.warmup)
        .num("window", o.window)
        .num("points", run.points)
        .num("window_s", run.window_s)
        .num("total_s", run.total_s)
        .add("step_s", json_array(seconds))
        .add("pressure_iters", json_array(it_p))
        .add("velocity_iters", json_array(it_v))
        .add("scalar_iters", json_array(it_s))
        .add("observables", json_object(observables))
        .str("digest", hex(digest))
        .num("bad_steps", run.bad_steps)
        .str("problem", run.problem)
        .num("peak_rss_mb", peak_rss_mb());
    if (o.trace) out.add("layers", json_object(run.layers));
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

// ---- campaign workload ------------------------------------------------------------

/// One attempt as seen from outside the case runner.
struct Attempt {
  std::string id;
  int attempt = 0;
  double start = 0;  ///< seconds since the scheduler started
  double end = 0;
};

/// Sched metrics from the attempts a wrapper around the runner observed.
Metrics sched_metrics(const sched::CampaignReport& report,
                      const std::vector<Attempt>& attempts) {
  std::map<std::string, double> first_start, last_end;
  double all = 0, recovery = 0;
  for (const Attempt& a : attempts) {
    const double wall = a.end - a.start;
    all += wall;
    if (a.attempt > 1) recovery += wall;
    if (!first_start.count(a.id) || a.start < first_start[a.id])
      first_start[a.id] = a.start;
    last_end[a.id] = std::max(last_end[a.id], a.end);
  }
  double waited = 0, latency = 0;
  for (const auto& [id, start] : first_start) {
    waited += start;
    latency += last_end[id];
  }
  return {{"sched.attempts", static_cast<double>(attempts.size())},
          {"sched.retries", static_cast<double>(report.retries)},
          {"sched.utilisation", report.utilisation()},
          {"sched.queue_wait_share", latency > 0 ? waited / latency : 0},
          {"sched.recovery_share", all > 0 ? recovery / all : 0}};
}

/// Probe of the campaign's most expensive case: rebuild it on a counting
/// communicator, restore its final checkpoint from the campaign directory,
/// trace a short window and replay the layers on that state.
Metrics probe_case(const Options& o, const sched::CampaignSpec& spec) {
  const sched::CaseSpec& cs = spec.cases.front();
  Metrics m;
  comm::SelfComm self;
  CountingComm comm(self);
  const cases::CaseInfo& info = cases::resolve_case(cs.params);
  const std::unique_ptr<cases::CaseSetup> setup =
      cases::build_case(info, cs.params, comm);
  setup->sim->set_initial_conditions();
  fluid::CheckpointConfig ck = fluid::CheckpointManager::config_from_params(cs.params);
  ck.directory =
      (std::filesystem::path(spec.config.dir) / cs.id / "checkpoints").string();
  if (!setup->sim->restore_latest(fluid::CheckpointManager(ck)))
    throw Error("felis_bench: no checkpoint to probe in " + ck.directory);
  std::vector<StepSample> samples;
  m.merge(trace_window(*setup, comm, o.probe_steps, samples));
  m["fluid.first_step_ms"] = 1e3 * samples.front().seconds;
  m.merge(replay_layers(*setup, comm, o.replays, o.scratch));
  return m;
}

int run_campaign(const Options& o) {
  const Clock::time_point t0 = Clock::now();
  ParamMap params = load_params(o);
  params.set("campaign.dir", (std::filesystem::path(o.scratch) / "campaign").string());
  const sched::CampaignSpec spec = sched::CampaignSpec::from_params(params);

  Metrics layers;
  if (o.trace) {
    // First rank setup of the process: includes the kernel tuner.
    const sched::CaseSpec& cs = spec.cases.front();
    const cases::Geometry geo = cases::resolve_case(cs.params).make_geometry(cs.params);
    comm::SelfComm self;
    const Clock::time_point ts = Clock::now();
    operators::make_rank_setup(geo.mesh, geo.degree, self, true);
    layers["operators.rank_setup_ms"] = 1e3 * since(ts);
  }

  sched::CaseRunner runner = sched::make_case_runner();
  std::mutex mutex;
  std::vector<Attempt> attempts;
  std::atomic<sched::Scheduler*> scheduler{nullptr};
  std::atomic<bool> first_done{false};
  double setup_s = 0;
  Clock::time_point started;
  if (o.setup_only) {
    // Time to the first completed step: every attempt runs one step, and
    // the first one to finish drains the campaign.
    runner = [inner = runner, &scheduler, &first_done, &setup_s, t0](
                 const sched::CaseSpec& cs, sched::RunContext& ctx) {
      sched::CaseSpec one = cs;
      one.steps = 1;
      sched::RunResult result = inner(one, ctx);
      if (!first_done.exchange(true)) {
        setup_s = since(t0);
        scheduler.load()->request_drain();
      }
      return result;
    };
  } else if (o.trace) {
    runner = [inner = runner, &mutex, &attempts, &started](
                 const sched::CaseSpec& cs, sched::RunContext& ctx) {
      Attempt a{cs.id, ctx.attempt(), since(started), 0};
      const auto record = [&] {
        a.end = since(started);
        std::lock_guard<std::mutex> lock(mutex);
        attempts.push_back(a);
      };
      try {
        sched::RunResult result = inner(cs, ctx);
        record();
        return result;
      } catch (...) {
        record();
        throw;
      }
    };
  }
  sched::Scheduler sched(spec, runner);
  scheduler.store(&sched);
  started = Clock::now();
  const sched::CampaignReport report = sched.run();

  JsonObject out;
  if (o.setup_only) {
    out.str("mode", "setup").num("setup_s", setup_s);
    std::printf("%s\n", out.dump().c_str());
    return 0;
  }
  std::map<std::string, const sched::CaseSpec*> by_id;
  for (const sched::CaseSpec& cs : spec.cases) by_id[cs.id] = &cs;
  std::string cases = "[";
  for (const sched::CaseOutcome& oc : report.outcomes) {
    const sched::CaseSpec& cs = *by_id.at(oc.id);
    const cases::Geometry geo =
        cases::resolve_case(cs.params).make_geometry(cs.params);
    const int n = geo.degree + 1;
    JsonObject c;
    c.str("id", oc.id)
        .str("type", cs.params.get_string("case.type", "rbc"))
        .str("state", oc.state)
        .num("attempts", oc.attempts)
        .num("wall_s", oc.wall_seconds)
        .num("steps", static_cast<double>(cs.steps))
        .num("points", static_cast<double>(geo.mesh.num_elements()) * n * n * n)
        .add("metrics", json_object(Metrics(oc.result.metrics.begin(),
                                            oc.result.metrics.end())))
        .str("detail", oc.result.detail)
        .str("ndjson", (std::filesystem::path(spec.config.dir) / oc.id /
                        "telemetry" / "run.ndjson")
                           .string());
    cases += (cases.size() > 1 ? "," : "") + c.dump();
  }
  cases += "]";
  if (o.trace) {
    layers.merge(sched_metrics(report, attempts));
    layers.merge(probe_case(o, spec));
  }
  out.str("mode", "campaign")
      .num("wall_s", report.wall_seconds)
      .num("completed", report.completed)
      .num("skipped", report.skipped)
      .num("retries", report.retries)
      .add("cases", cases)
      .num("peak_rss_mb", peak_rss_mb());
  if (o.trace) out.add("layers", json_object(layers));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_options(argc, argv);
    return o.mode == "step" ? run_step(o) : run_campaign(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "felis_bench: %s\n", e.what());
    return 2;
  }
}
