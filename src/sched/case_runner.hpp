/// \file case_runner.hpp
/// \brief The default campaign runner: one registered case per campaign
/// case, with crash-safe checkpointing, restore-on-retry and per-run
/// telemetry.
///
/// A campaign case runs `case.steps` time steps of the scenario its
/// `case.type` key resolves to in the case registry (cases::Registry — rbc,
/// rbc2d, rbc_rot, ihc, rbc_cyl, or anything registered on top), built from
/// its (sweep-expanded) parameters on `threads` simulated ranks
/// (comm::run_parallel), each rank on the compute backend its
/// `device.backend` key names (the process default when absent) with the one
/// thread the scheduler charges it (device::select_backend). The
/// runner never names a concrete case class: the registry's factories own
/// geometry and physics, the runner owns durability and the run loop.
/// Everything a run writes lives under its RunContext::run_dir():
///
///   <campaign.dir>/<case id>/checkpoints/   rotation (per rank: felis.r<k>)
///   <campaign.dir>/<case id>/telemetry/     NDJSON/CSV/trace per rank
///
/// Fault tolerance contract: every attempt first restores the newest valid
/// checkpoint (multi-rank: the newest step *common* to all ranks, agreed by
/// allreduce-min, so ranks never resume from different steps), then steps to
/// the target. Because restarts are bitwise-exact (PR 3) for every
/// registered case, a case that crashes and retries finishes in exactly the
/// state of an uninterrupted run.
///
/// The case's own keys govern everything optional: per-rank telemetry is on
/// when `telemetry.enabled` is, and fault injection (fault.* case keys or
/// FELIS_FAULT_INJECT) is honoured for single-rank cases only — one injector
/// per case persists across attempts, so `at=N` faults fire once per
/// campaign, not once per attempt. Multi-rank cases skip injection: a rank
/// killed mid-exchange would deadlock its peers, which is a property of
/// threads-as-ranks, not of the scheduler under test.
#pragma once

#include "sched/scheduler.hpp"

namespace felis::sched {

/// Build the default registry-driven runner. The returned callable is
/// thread-safe (the scheduler invokes it concurrently for different cases)
/// and stateful: it owns the per-case fault injectors that persist across
/// retry attempts. Unknown `case.type` values fail the case with the
/// registry's available-cases message as the failure detail; hosts should
/// validate types upfront (felis_campaign does) so deterministic config
/// errors never burn retries.
CaseRunner make_case_runner();

/// Write the campaign-level Nu summary CSV (the aggregate the
/// bench_nu_ra_scaling study and the validation matrix tabulate): one row
/// per completed case, sorted by Ra, with the case type, both Nusselt
/// measurements, kinetic energy, attempts and wall time. Atomically
/// replaced (io::AtomicFileWriter).
void write_nu_ra_csv(const CampaignSpec& spec, const CampaignReport& report,
                     const std::string& path);

}  // namespace felis::sched
