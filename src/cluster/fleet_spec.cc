#include "src/cluster/fleet_spec.h"

namespace vsched {
namespace {

// Deliberately small hosts: the interesting regime is committed vCPUs above
// the hardware thread count (stacking -> steal), and with overcommit 2.0 an
// 8-thread host reaches it at 9 committed vCPUs. Bigger hosts would need
// proportionally more VMs per host to produce any contention at all.
TopologySpec FleetHostTopology() {
  TopologySpec topo;
  topo.sockets = 1;
  topo.cores_per_socket = 4;
  topo.threads_per_core = 2;
  return topo;
}

FleetSpec BaseSpec() {
  FleetSpec spec;
  spec.host_topology = FleetHostTopology();
  return spec;
}

// 4 hosts, 10 short-lived 2-vCPU VMs: small enough for a CI smoke run, yet
// churny enough (fast arrivals, ~150 ms lifetimes, aggressive consolidation)
// that boots, migrations, and power-downs all occur within a ~1 s horizon.
FleetSpec TinyFleet() {
  FleetSpec spec = BaseSpec();
  spec.name = "tiny";
  spec.host_topology.cores_per_socket = 2;  // 4 threads: 20 vCPUs overflow
  spec.hosts = 4;
  spec.initial_hosts_on = 2;
  spec.vms = 10;
  spec.vcpus_per_vm = 2;
  spec.arrival_window = MsToNs(100);
  spec.vm_lifetime_mean = MsToNs(150);
  spec.requests_per_sec_per_vcpu = 200.0;
  spec.service_mean = MsToNs(1);
  spec.slo_latency = MsToNs(10);
  spec.control_period = MsToNs(10);
  spec.consolidate_below = 0.6;
  spec.boot_delay = MsToNs(20);
  spec.idle_shutdown_after = MsToNs(40);
  spec.migration_copy_latency = MsToNs(10);
  spec.migration_downtime = MsToNs(1);
  // Two 2-host cells: even the CI smoke preset exercises the multi-cell
  // inbox/mailbox machinery of --shards (and cross-cell placement).
  spec.cell_hosts = 2;
  return spec;
}

FleetSpec SmallFleet() {
  FleetSpec spec = BaseSpec();
  spec.name = "small";
  spec.hosts = 16;
  spec.initial_hosts_on = 4;
  spec.vms = 48;
  spec.vcpus_per_vm = 4;
  spec.arrival_window = MsToNs(300);
  // Long enough for probe estimates to converge (~200 ms cadence) and for
  // the head-to-head to measure steady service, short enough that a 6 s
  // horizon still sees departures, consolidation, and power-down.
  spec.vm_lifetime_mean = MsToNs(2000);
  spec.control_period = MsToNs(20);
  spec.consolidate_below = 0.4;
  return spec;
}

FleetSpec RackFleet() {
  FleetSpec spec = BaseSpec();
  spec.name = "rack";
  spec.hosts = 64;
  spec.initial_hosts_on = 16;
  spec.vms = 256;
  spec.vcpus_per_vm = 4;
  spec.arrival_window = MsToNs(500);
  spec.vm_lifetime_mean = MsToNs(2000);
  return spec;
}

FleetSpec DcFleet() {
  FleetSpec spec = BaseSpec();
  spec.name = "dc";
  spec.hosts = 1000;
  spec.initial_hosts_on = 250;
  spec.vms = 4000;
  spec.vcpus_per_vm = 4;
  spec.arrival_window = MsToNs(1000);
  spec.vm_lifetime_mean = MsToNs(2000);
  return spec;
}

}  // namespace

bool LookupFleetSpec(const std::string& name, FleetSpec* spec) {
  if (name == "tiny") {
    *spec = TinyFleet();
  } else if (name == "small") {
    *spec = SmallFleet();
  } else if (name == "rack") {
    *spec = RackFleet();
  } else if (name == "dc") {
    *spec = DcFleet();
  } else {
    return false;
  }
  return true;
}

std::vector<std::string> FleetSpecNames() { return {"tiny", "small", "rack", "dc"}; }

}  // namespace vsched
