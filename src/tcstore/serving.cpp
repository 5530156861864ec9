#include "tcstore/serving.hpp"

#include <utility>

namespace tcc::tcstore {

namespace {
std::vector<int> participants_of(const ServingSpec& spec) {
  std::vector<int> out{ServingCluster::kClientChip};
  out.insert(out.end(), spec.servers.begin(), spec.servers.end());
  out.insert(out.end(), spec.spares.begin(), spec.spares.end());
  return out;
}
}  // namespace

ServingCluster::ServingCluster(cluster::TcCluster& cluster, ServingSpec spec)
    : spec_(std::move(spec)),
      participants_(participants_of(spec_)),
      map_(tcsvc::ShardMap::from_plan(cluster.plan(), spec_.servers, spec_.kv.shards)) {
  const auto n = static_cast<std::size_t>(cluster.num_nodes());
  nodes_.resize(n);
  kvs_.resize(n);
  stores_.resize(n);
  mail_.resize(n);
  agents_.resize(n);
  for (int chip : participants_) {
    nodes_[static_cast<std::size_t>(chip)] =
        std::make_unique<tcsvc::RpcNode>(cluster, chip);
  }
  for (int chip : participants_) {
    if (chip == kClientChip) continue;  // servers and spares serve
    const auto i = static_cast<std::size_t>(chip);
    kvs_[i] = std::make_unique<tcsvc::KvService>(cluster, *nodes_[i], map_, spec_.kv);
    kvs_[i]->start();
    if (spec_.store) {
      stores_[i] = std::make_unique<StoreService>(cluster, *nodes_[i], *kvs_[i],
                                                  *spec_.store);
      stores_[i]->start();
    }
    if (spec_.mailbox) {
      mail_[i] = std::make_unique<MailboxService>(cluster, *nodes_[i], *kvs_[i]);
      mail_[i]->start();
    }
  }
  if (spec_.membership) {
    for (int chip : participants_) {
      const auto i = static_cast<std::size_t>(chip);
      agents_[i] = std::make_unique<tcsvc::MembershipAgent>(cluster, *nodes_[i], map_,
                                                            *spec_.membership);
      agents_[i]->start();
      agents_[i]->attach_service(kvs_[i].get());
      if (stores_[i]) agents_[i]->attach_aux(stores_[i].get());
    }
    coord_ = std::make_unique<tcsvc::MembershipCoordinator>(
        cluster, *agent(kClientChip), participants_, *spec_.membership);
    coord_->start();
  }
  for (int chip : participants_) {
    const auto i = static_cast<std::size_t>(chip);
    if (kvs_[i] || agents_[i]) nodes_[i]->start(participants_).expect("rpc start");
  }
}

void ServingCluster::attach(tcsvc::ShardClient& client) const {
  if (coord_) client.set_membership(agent(kClientChip));
}

void ServingCluster::stop() {
  for (const auto& node : nodes_) {
    if (node) node->stop();
  }
}

}  // namespace tcc::tcstore
