// Shared set-up for the serving-tier tests: the booted ring every
// tcstore::ServingCluster rig in kv_serving, tcstore, mailbox, membership
// and chaos-soak tests stands on.
#pragma once

#include <memory>
#include <utility>

#include "tccluster/cluster.hpp"

namespace tcc {

/// A booted ring of `nodes` single-chip nodes with 64 MiB per chip and no
/// modelled boot code fetch.
inline std::unique_ptr<cluster::TcCluster> make_ring(int nodes) {
  cluster::TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kRing;
  o.topology.nx = nodes;
  o.topology.dram_per_chip = 64_MiB;
  o.boot.model_code_fetch = false;
  auto c = cluster::TcCluster::create(o);
  c.value()->boot().expect("boot");
  return std::move(c).value();
}

}  // namespace tcc
