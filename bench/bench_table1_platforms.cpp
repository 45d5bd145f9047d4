// Table 1 reproduction: the experimental platforms' hardware descriptions as
// encoded in the performance model, plus the derived quantities the scaling
// analysis actually uses.
#include <cstdio>

#include "bench_utils.hpp"
#include "field/kernel_cost.hpp"
#include "perfmodel/machine.hpp"

using namespace felis;
using namespace felis::perfmodel;

int main() {
  std::printf("Table 1 — hardware and software details of the experimental "
              "platforms\n");
  std::printf("(per *logical* GPU: one MI250X GCD on LUMI, one A100 on "
              "Leonardo)\n\n");
  bench::print_rule();
  std::printf("%-28s %18s %18s\n", "System", "LUMI", "Leonardo");
  bench::print_rule();
  const Machine lumi = make_lumi();
  const Machine leo = make_leonardo();
  std::printf("%-28s %18s %18s\n", "Computing device", "AMD MI250X (GCD)",
              "Nvidia A100");
  std::printf("%-28s %18.2f %18.2f\n", "Peak TFlop FP64/s (logical)",
              lumi.device.peak_flops / 1e12, leo.device.peak_flops / 1e12);
  std::printf("%-28s %18.0f %18.0f\n", "Peak BW GB/s (logical)",
              lumi.device.mem_bandwidth / 1e9, leo.device.mem_bandwidth / 1e9);
  std::printf("%-28s %18d %18d\n", "No. logical devices", lumi.total_devices,
              leo.total_devices);
  std::printf("%-28s %18s %18s\n", "Interconnect", "Slingshot 11", "HDR IB");
  std::printf("%-28s %18.1f %18.1f\n", "NIC GB/s per device (dir.)",
              lumi.network.bandwidth / 1e9, leo.network.bandwidth / 1e9);
  std::printf("%-28s %18.1f %18.1f\n", "Network latency (us)",
              lumi.network.latency * 1e6, leo.network.latency * 1e6);
  std::printf("%-28s %18.1f %18.1f\n", "Kernel launch latency (us)",
              lumi.device.launch_latency * 1e6, leo.device.launch_latency * 1e6);
  bench::print_rule();
  std::printf("\nDerived balance (bytes moved per flop at which a kernel "
              "becomes compute bound):\n");
  std::printf("  LUMI GCD:  %.3f B/flop   Leonardo A100: %.3f B/flop\n",
              lumi.device.mem_bandwidth / lumi.device.peak_flops,
              leo.device.mem_bandwidth / leo.device.peak_flops);
  const OpCounters ax = field::cost::ax_helmholtz(8, 1, true);
  std::printf("  SEM ax kernel at N=7 streams ~%.2f B/flop -> memory bound on "
              "both devices,\n  matching the paper's emphasis on high-"
              "bandwidth architectures (S8.2).\n",
              ax.bytes / ax.flops);
  std::printf("\nAllreduce latency (8 B, model): ");
  for (const int p : {1024, 4096, 16384})
    std::printf("P=%d: %.0f us   ", p, lumi.allreduce_time(p, 8) * 1e6);
  std::printf("\n");
  return 0;
}
