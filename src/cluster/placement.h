// VM placement for the fleet control plane.
//
// Placement sees a load view of every host (power state, committed vCPUs,
// capacity) and picks the host a VM's vCPUs should be committed to. The rule
// is deterministic: ties break on the lowest host id, and the load measure is
// committed vCPUs (control-plane state), not sampled utilization, so a
// decision depends only on the event history.
#ifndef SRC_CLUSTER_PLACEMENT_H_
#define SRC_CLUSTER_PLACEMENT_H_

#include <vector>

namespace vsched {

// What placement may consult about a host.
struct HostLoadView {
  int host_id = 0;
  bool accepts_vms = false;  // powered on (not off/booting)
  int committed_vcpus = 0;
  int capacity_vcpus = 0;  // hardware threads * overcommit
};

// Picks the accepting host with the least committed load ratio that still
// fits `vcpus` more committed vCPUs (spreads; worst-fit flavor), or -1 when
// none fits.
int PickLeastLoaded(const std::vector<HostLoadView>& hosts, int vcpus);

}  // namespace vsched

#endif  // SRC_CLUSTER_PLACEMENT_H_
