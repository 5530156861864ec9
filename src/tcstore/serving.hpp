// tcstore serving: the one builder that stands the serving tier up on a
// booted cluster — RPC nodes, the KV service (plus the store and mailbox
// layers when asked for) on every service chip, and, with membership on, an
// agent on every participant and the coordinator on the client chip.
//
// Wiring order (fixed, so deterministic runs stay bit-identical): create the
// RpcNodes, then the services, then the membership agents (each attached to
// its chip's KvService and, with the store on, to its StoreService as the
// aux streamer that migrates dedup records), then the coordinator, then start
// the nodes in participant order. A node starts — with the participants as
// peers — only if its chip hosts a listener (a service, an agent or the
// coordinator); a client-only node opens its pumps on its first call().
//
// The client chip is fixed at chip 0 (kClientChip, the first chip of
// Supernode 0 on every plan shape): it runs the clients and, with membership
// on, the coordinator. Clients stay with the caller: construct them on
// node(kClientChip) with map(), then attach() them so they route by committed
// epochs. Keepalives stay with the caller too (the monitoring domain is a
// property of the experiment, not of the tier).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "tcstore/mailbox.hpp"
#include "tcstore/store.hpp"
#include "tcsvc/membership.hpp"

namespace tcc::tcstore {

struct ServingSpec {
  /// Founding servers: the epoch-0 owners of every shard.
  std::vector<int> servers;
  /// Service chips that own nothing at epoch 0 (joiners).
  std::vector<int> spares;
  tcsvc::KvConfig kv;
  /// Layer a StoreService over each KvService.
  std::optional<StoreConfig> store;
  /// Layer a MailboxService over each KvService.
  bool mailbox = false;
  /// Run an agent on every participant and the coordinator on the client chip.
  std::optional<tcsvc::MembershipConfig> membership;
};

class ServingCluster {
 public:
  /// The chip that runs the clients (and the coordinator, with membership on).
  static constexpr int kClientChip = 0;

  ServingCluster(cluster::TcCluster& cluster, ServingSpec spec);

  ServingCluster(const ServingCluster&) = delete;
  ServingCluster& operator=(const ServingCluster&) = delete;

  [[nodiscard]] const ServingSpec& spec() const { return spec_; }
  /// kClientChip, then servers, then spares — the peers every node starts with.
  [[nodiscard]] const std::vector<int>& participants() const { return participants_; }
  /// The epoch-0 placement every participant booted with.
  [[nodiscard]] const tcsvc::ShardMap& map() const { return map_; }

  // Per-chip parts; nullptr where `chip` hosts none.
  [[nodiscard]] tcsvc::RpcNode* node(int chip) const { return at(nodes_, chip); }
  [[nodiscard]] tcsvc::KvService* kv(int chip) const { return at(kvs_, chip); }
  [[nodiscard]] StoreService* store(int chip) const { return at(stores_, chip); }
  [[nodiscard]] MailboxService* mailbox(int chip) const { return at(mail_, chip); }
  [[nodiscard]] tcsvc::MembershipAgent* agent(int chip) const { return at(agents_, chip); }
  [[nodiscard]] tcsvc::MembershipCoordinator* coordinator() const { return coord_.get(); }

  /// Route `client` by the client chip's agent (no-op without membership).
  void attach(tcsvc::ShardClient& client) const;
  /// Stop every node (serve pumps and store sweeps exit, engine().run() drains).
  void stop();

 private:
  template <typename T>
  static T* at(const std::vector<std::unique_ptr<T>>& parts, int chip) {
    const auto i = static_cast<std::size_t>(chip);
    return chip >= 0 && i < parts.size() ? parts[i].get() : nullptr;
  }

  ServingSpec spec_;
  std::vector<int> participants_;
  tcsvc::ShardMap map_;
  // Declared in dependency order so destruction runs coordinator -> nodes.
  std::vector<std::unique_ptr<tcsvc::RpcNode>> nodes_;
  std::vector<std::unique_ptr<tcsvc::KvService>> kvs_;
  std::vector<std::unique_ptr<StoreService>> stores_;
  std::vector<std::unique_ptr<MailboxService>> mail_;
  std::vector<std::unique_ptr<tcsvc::MembershipAgent>> agents_;
  std::unique_ptr<tcsvc::MembershipCoordinator> coord_;
};

}  // namespace tcc::tcstore
