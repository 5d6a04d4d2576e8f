#include "src/cluster/placement.h"

namespace vsched {
namespace {

double LoadRatio(const HostLoadView& host) {
  if (host.capacity_vcpus <= 0) {
    return 1.0;
  }
  return static_cast<double>(host.committed_vcpus) / static_cast<double>(host.capacity_vcpus);
}

bool Fits(const HostLoadView& host, int vcpus) {
  return host.accepts_vms && host.committed_vcpus + vcpus <= host.capacity_vcpus;
}

}  // namespace

int PickLeastLoaded(const std::vector<HostLoadView>& hosts, int vcpus) {
  int best = -1;
  double best_load = 0;
  for (const HostLoadView& host : hosts) {
    if (!Fits(host, vcpus)) {
      continue;
    }
    double load = LoadRatio(host);
    if (best == -1 || load < best_load) {  // tie keeps the lowest host id
      best = host.host_id;
      best_load = load;
    }
  }
  return best;
}

}  // namespace vsched
