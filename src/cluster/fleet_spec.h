// Declarative description of a simulated datacenter fleet.
//
// A FleetSpec names everything the cluster control plane needs: the host
// shape and count, the VM population (size, Poisson arrival window,
// exponential lifetimes), the open-loop request traffic each tenant runs,
// the SLO bound, the placement/provisioning/migration knobs, and the
// energy model. Like RunSpec, a FleetSpec plus a seed fully determines a
// run: two executions are byte-identical.
#ifndef SRC_CLUSTER_FLEET_SPEC_H_
#define SRC_CLUSTER_FLEET_SPEC_H_

#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/host/topology.h"

namespace vsched {

struct FleetSpec {
  std::string name = "fleet";

  // ---- Hosts ----
  int hosts = 64;
  // Hosts powered on at t=0; the reactive provisioner boots the rest on
  // demand (kOff -> kBooting -> kOn after boot_delay).
  int initial_hosts_on = 16;
  TopologySpec host_topology;  // presets use 1 socket x 8 cores x 2 SMT

  // ---- VM population ----
  int vms = 256;
  int vcpus_per_vm = 4;
  // VM arrivals form a Poisson process with mean inter-arrival
  // arrival_window / vms, i.e. the population ramps over roughly this long.
  TimeNs arrival_window = MsToNs(500);
  // Exponential VM lifetime mean; 0 means VMs live until the horizon.
  // Departures free capacity, which drives consolidation and power-down.
  TimeNs vm_lifetime_mean = 0;

  // ---- Tenant traffic (open-loop latency app per VM) ----
  double requests_per_sec_per_vcpu = 40.0;
  TimeNs service_mean = MsToNs(3);
  double service_cv = 0.3;
  // Per-request SLO bound on end-to-end latency.
  TimeNs slo_latency = MsToNs(30);

  // ---- Tenant mix ----
  // Every batch_every-th VM (by arrival order; 0 disables) is a CPU-bound
  // batch tenant (task-parallel, ~full-vCPU demand) instead of a latency
  // tenant. Batch tenants are the noisy neighbors: vCPUs stacked with them
  // see far less capacity than vCPUs stacked with idle ones, which is the
  // heterogeneity vSched's probing exploits. SLO metrics cover latency
  // tenants only; batch progress is reported as batch_chunks.
  int batch_every = 2;
  // Best-effort SCHED_IDLE spinner tasks co-located *inside* each latency
  // VM (0 disables). In the guest they yield instantly to request work, but
  // they keep the vCPUs' host bandwidth quotas drained, so vCPUs are
  // routinely mid-throttle when a request arrives — the restricted-capacity
  // regime of the paper's §2/Fig 18. Guest CFS places onto a throttled vCPU
  // blindly (a SCHED_IDLE-only queue looks idle); vact's activity model is
  // what lets vSched route around it.
  int background_tasks_per_vm = 2;

  // ---- Guest probing cadence (vSched guests only) ----
  // The defaults in VcapConfig (100 ms windows every 1 s) suit long-lived
  // single-VM experiments; at fleet timescales a heavy (normal-priority)
  // window that long stalls a tenant for several SLOs. Fleet guests probe
  // with short windows at a tighter cadence instead, keeping the heavy duty
  // cycle near the paper's ~1% overhead target.
  // A heavy (normal-priority) probe window blocks co-located request work
  // for its full length, so the window length is a p99 floor for vSched
  // guests; 2 ms windows at a 200 ms cadence keep the duty cycle at the
  // paper's ~1% target while still converging within a fleet VM lifetime.
  TimeNs probe_window = MsToNs(2);
  TimeNs probe_interval = MsToNs(200);
  int probe_heavy_every = 4;
  // rwc straggler criterion for fleet guests. The paper's ratio (0.1,
  // "10x lower") assumes *persistent* host-side shaping; under fleet churn
  // a vCPU's capacity dips transiently when a batch neighbor lands on its
  // thread, and banning it throws away a quarter of the VM right when load
  // is high (measured: ~4x worse p99 than leaving it on). 0 disables
  // straggler bans; stacking bans are unaffected.
  double rwc_straggler_ratio = 0.0;

  // ---- Host-side vCPU shaping (the paper's §2 cloud reality) ----
  // Hosts enforce fair sharing of an oversubscribed hardware thread with CFS
  // bandwidth caps: a thread carrying k vCPUs caps each at quota
  // cap_period / k per cap_period. Capacity becomes ~1/k and the vCPU sits
  // inactive for up to (1 - 1/k) * cap_period at a stretch — the shaped
  // capacity/latency profile of §5.1 and the heterogeneous vCPU abstraction
  // the guest-side probers exist to discover. 0 disables capping (stacked
  // vCPUs then contend through the host runqueue only).
  TimeNs cap_period = MsToNs(20);
  // Host scheduler slice/preemption coarseness. Cloud hosts run coarse
  // slices to bound context-switch overhead at high vCPU counts; the paper's
  // §2 measurements put real-cloud vCPU latency at several ms for exactly
  // this reason (and Fig 2 shapes it through these same knobs). A waking
  // latency-sensitive vCPU stacked behind a busy neighbor waits up to
  // roughly this long per co-runner.
  TimeNs host_min_granularity = MsToNs(6);
  TimeNs host_wakeup_granularity = MsToNs(6);

  // ---- Placement (least committed load first; src/cluster/placement.h) ----
  // A host accepts vCPU commitments up to threads * overcommit.
  double overcommit = 3.0;

  // ---- Control loop (telemetry + provisioning + consolidation) ----
  TimeNs control_period = MsToNs(25);
  // Source threshold for consolidation: an On host with committed load in
  // (0, consolidate_below] gets one VM migrated to a busier host per tick.
  double consolidate_below = 0.25;
  int min_hosts_on = 1;
  TimeNs boot_delay = MsToNs(50);
  // An On host with zero committed vCPUs for this long powers off.
  TimeNs idle_shutdown_after = MsToNs(100);

  // ---- Live migration model: (copy latency, downtime) event pair ----
  TimeNs migration_copy_latency = MsToNs(40);
  TimeNs migration_downtime = MsToNs(2);

  // ---- Sharded execution (vsched_run --fleet --shards=N) ----
  // Hosts are grouped into fixed cells of this many contiguous hosts; each
  // cell is one logical process of the PDES engine (own dispatch heap and
  // RNG) and one migration domain — consolidation drains within a
  // cell, mirroring rack-locality constraints real placement respects.
  // Deliberately part of the *spec*, not the CLI: the partition must not
  // depend on --shards, or output could not be byte-identical across shard
  // counts.
  int cell_hosts = 8;

  // ---- Energy model (watts; integrated over the horizon) ----
  double off_watts = 10.0;
  double booting_watts = 100.0;
  double idle_watts = 100.0;
  double busy_watts = 250.0;  // at 100% hardware-thread utilization
};

// Canned presets, smallest to largest:
//   tiny  —    4 hosts,   10 VMs x 2 vCPU (CI smoke / determinism ctest)
//   small —   16 hosts,   48 VMs x 4 vCPU
//   rack  —   64 hosts,  256 VMs x 4 vCPU (multi-cell --shards CI checks)
//   dc    — 1000 hosts, 4000 VMs x 4 vCPU (the headline scale target)
bool LookupFleetSpec(const std::string& name, FleetSpec* spec);
std::vector<std::string> FleetSpecNames();

}  // namespace vsched

#endif  // SRC_CLUSTER_FLEET_SPEC_H_
