// store_torus: write/RMW-heavy serving on a 4x4x4 torus of 4-chip
// Supernodes (256 chips, staged bring-up).
//
// Eight servers sit as in `kv_serving --shape=torus3d`, two per z-plane.
// Sixteen closed-loop workers on chip 0 each run a seeded sequence of ops,
// uniform over incr, cas, append, set and mailbox send; every store op
// writes and replicates, and ops cross up to six dimension-ordered hops.
#include <algorithm>
#include <cstring>
#include <memory>

#include "harness.hpp"
#include "tcstore/mailbox.hpp"
#include "tcstore/store.hpp"

namespace perfbench {
namespace {

using namespace tcc;

constexpr int kDim = 4;
constexpr int kWorkers = 16;
constexpr int kOpsPerWorker = 1280;
constexpr int kKeysPerKind = 64;
constexpr int kMailboxes = 64;  ///< mailbox m is written only by worker m % kWorkers
constexpr std::size_t kValueBytes = 64;
constexpr std::size_t kAppendBytes = 8;
/// Host-time slice of the ~8.5 ms simulated window (~85 slices).
constexpr Picoseconds kSlice = Picoseconds::from_us(100.0);

enum Kind : int { kIncr = 0, kCas, kAppend, kSet, kSend, kKinds };

struct Op {
  Kind kind = kIncr;
  int key = 0;
};

std::string key_name(Kind kind, int key) {
  static const char* const prefix[] = {"i", "c", "a", "s", "m"};
  return prefix[kind] + std::to_string(key);
}

std::vector<std::uint8_t> pattern(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                                  std::size_t n) {
  std::vector<std::uint8_t> v(n);
  fill_pattern(v.data(), n, seed, a, b);
  return v;
}

/// Mailbox payload: [u32 mailbox][u32 per-mailbox sequence].
std::vector<std::uint8_t> letter(int box, std::uint32_t seq) {
  std::vector<std::uint8_t> v(8);
  const auto b = static_cast<std::uint32_t>(box);
  std::memcpy(v.data(), &b, 4);
  std::memcpy(v.data() + 4, &seq, 4);
  return v;
}

}  // namespace

Rep run_store_torus(std::uint64_t seed, bool traced) {
  // Seeded inputs: each worker's op sequence.
  std::vector<std::vector<Op>> plan(kWorkers);
  {
    auto rng = stream(seed, 3);
    std::uniform_int_distribution<int> kind(0, kKinds - 1);
    std::uniform_int_distribution<int> key(0, kKeysPerKind - 1);
    std::uniform_int_distribution<int> own_box(0, kMailboxes / kWorkers - 1);
    for (int w = 0; w < kWorkers; ++w) {
      for (int i = 0; i < kOpsPerWorker; ++i) {
        Op op{static_cast<Kind>(kind(rng)), key(rng)};
        if (op.kind == kSend) op.key = w + kWorkers * own_box(rng);
        plan[static_cast<std::size_t>(w)].push_back(op);
      }
    }
  }
  Rep rep;
  rep.traced = traced;
  rep.attempted = static_cast<std::uint64_t>(kWorkers) * kOpsPerWorker;

  const auto t0 = Clock::now();
  cluster::TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kTorus3D;
  o.topology.nx = o.topology.ny = o.topology.nz = kDim;
  o.topology.supernode_size = 4;
  o.topology.dram_per_chip = 16_MiB;
  o.boot.model_code_fetch = false;
  o.shared_bytes = 4_MiB;
  auto cl = cluster::TcCluster::create(o).value();
  rep.setup.plan_s = seconds_since(t0);
  const auto t1 = Clock::now();
  cl->boot().expect("boot");
  rep.setup.boot_s = seconds_since(t1);

  const auto t2 = Clock::now();
  // Two servers per z-plane, at Supernodes (1,1,z) and (3,2,z).
  std::vector<int> servers;
  for (int z = 0; z < kDim; ++z) {
    for (int xy : {1 + kDim * 1, 3 + kDim * 2}) {
      const int sn = xy + kDim * kDim * z;
      servers.push_back(cl->plan().supernodes()[static_cast<std::size_t>(sn)].chips[0]);
    }
  }
  std::vector<int> participants = {0};
  participants.insert(participants.end(), servers.begin(), servers.end());
  tcsvc::KvConfig kv_cfg;
  tcstore::StoreConfig store_cfg;
  tcsvc::RpcConfig rpc_cfg;
  if (traced) rpc_cfg.max_spans = 1u << 20;
  auto map = tcsvc::ShardMap::from_plan(cl->plan(), servers, kv_cfg.shards);
  std::vector<std::unique_ptr<tcsvc::RpcNode>> nodes;
  for (int chip : participants) {
    nodes.push_back(std::make_unique<tcsvc::RpcNode>(*cl, chip, rpc_cfg));
  }
  std::vector<std::unique_ptr<tcsvc::KvService>> kvs;
  std::vector<std::unique_ptr<tcstore::StoreService>> stores;
  std::vector<std::unique_ptr<tcstore::MailboxService>> boxes;
  std::vector<std::vector<std::uint32_t>> delivered(kMailboxes);
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    tcsvc::RpcNode& node = *nodes[i];
    kvs.push_back(std::make_unique<tcsvc::KvService>(*cl, node, map, kv_cfg));
    kvs.back()->start();
    stores.push_back(std::make_unique<tcstore::StoreService>(*cl, node, *kvs.back(), store_cfg));
    stores.back()->start();
    boxes.push_back(std::make_unique<tcstore::MailboxService>(*cl, node, *kvs.back()));
    boxes.back()->start();
    for (int m = 0; m < kMailboxes; ++m) {
      boxes.back()->open(key_name(kSend, m), [&delivered, m](int, std::span<const std::uint8_t> p) {
        std::uint32_t box = 0, seq = 0;
        if (p.size() == 8) {
          std::memcpy(&box, p.data(), 4);
          std::memcpy(&seq, p.data() + 4, 4);
        }
        delivered[static_cast<std::size_t>(m)].push_back(
            static_cast<int>(box) == m ? seq : 0xffffffffu);
      });
    }
  }
  for (auto& n : nodes) n->start(participants).expect("rpc start");
  tcstore::StoreClient store(*cl, *nodes[0], map, store_cfg);
  tcstore::MailboxClient mail(*cl, *nodes[0], map);
  rep.setup.services_s = seconds_since(t2);

  // Client-side ledger of acked outcomes, checked against the servers after.
  std::vector<std::uint64_t> incr_acks(kKeysPerKind, 0);
  std::vector<std::vector<std::uint64_t>> incr_values(kKeysPerKind);
  std::vector<std::uint64_t> cas_expected(kKeysPerKind, 0);
  std::vector<std::vector<std::uint64_t>> cas_wins(kKeysPerKind);  // versions, completion order
  std::vector<std::uint64_t> append_acks(kKeysPerKind, 0);
  std::vector<std::vector<std::uint32_t>> append_sizes(kKeysPerKind);
  struct Last {
    std::uint64_t version = 0;
    std::uint64_t tag = 0;
  };
  std::vector<Last> set_last(kKeysPerKind);
  std::vector<std::uint32_t> sent(kMailboxes, 0);

  sim::Engine& eng = cl->engine();
  std::vector<double> latencies_us;
  std::vector<OpSpan> ops;
  LinkBusy busy;
  Window window;
  double dedup_peak = 0.0;
  int workers_done = 0;
  sim::Trigger all_done(eng);

  // Prefilled set values live in their own pattern space (op tags start at 1).
  auto prefill_value = [&](int key) { return pattern(seed, kKinds + kSet, key, kValueBytes); };
  auto shard_home = [&](const std::string& key) { return map.primary(map.shard_of(key)); };

  const auto t3 = Clock::now();
  eng.spawn_fn([&]() -> sim::Task<void> {
    const std::vector<std::uint8_t> zero(8, 0);
    for (int k = 0; k < kKeysPerKind; ++k) {
      rep.check((co_await store.set(key_name(kIncr, k), zero)).ok(), "prefill incr key");
      auto c = co_await store.set(key_name(kCas, k), pattern(seed, kCas, k, kValueBytes));
      rep.check(c.ok(), "prefill cas key");
      if (c.ok()) cas_expected[static_cast<std::size_t>(k)] = c.value();
      rep.check((co_await store.set(key_name(kAppend, k), zero)).ok(), "prefill append key");
      auto s = co_await store.set(key_name(kSet, k), prefill_value(k));
      rep.check(s.ok(), "prefill set key");
      if (s.ok()) set_last[static_cast<std::size_t>(k)] = {s.value(), 0};
    }
    for (int m = 0; m < kMailboxes; ++m) {
      rep.check((co_await mail.send(key_name(kSend, m), letter(m, 0))).ok(), "prefill mailbox");
    }
    // ---- measured window ----
    rep.setup.prefill_s = seconds_since(t3);
    if (traced) cl->enable_tracing(1u << 16);
    window.open(eng, kSlice);
    for (int w = 0; w < kWorkers; ++w) {
      eng.spawn_fn([&, w]() -> sim::Task<void> {
        for (int i = 0; i < kOpsPerWorker; ++i) {
          const Op op = plan[static_cast<std::size_t>(w)][static_cast<std::size_t>(i)];
          const auto k = static_cast<std::size_t>(op.key);
          const std::string key = key_name(op.kind, op.key);
          const Picoseconds start = eng.now();
          const std::uint64_t tag = static_cast<std::uint64_t>(w) * kOpsPerWorker + i + 1;
          bool ok = false;
          switch (op.kind) {
            case kIncr: {
              auto r = co_await store.incr(key, 1);
              ok = r.ok();
              if (ok) {
                ++incr_acks[k];
                incr_values[k].push_back(r.value().value);
              }
              break;
            }
            case kCas: {
              auto r = co_await store.cas(key, cas_expected[k], pattern(seed, kCas, tag, kValueBytes));
              ok = r.ok();
              if (ok) {
                if (r.value().success) cas_wins[k].push_back(r.value().version);
                cas_expected[k] = std::max(cas_expected[k], r.value().version);
              }
              break;
            }
            case kAppend: {
              auto r = co_await store.append(key, pattern(seed, kAppend, tag, kAppendBytes));
              ok = r.ok();
              if (ok) {
                ++append_acks[k];
                append_sizes[k].push_back(r.value().size);
              }
              break;
            }
            case kSet: {
              auto r = co_await store.set(key, pattern(seed, kSet, tag, kValueBytes));
              ok = r.ok();
              if (ok && r.value() > set_last[k].version) set_last[k] = {r.value(), tag};
              break;
            }
            case kSend: {
              ok = (co_await mail.send(key, letter(op.key, sent[k] + 1))).ok();
              if (ok) ++sent[k];
              break;
            }
            case kKinds:
              break;
          }
          if (ok) {
            latencies_us.push_back((eng.now() - start).microseconds());
          } else {
            ++rep.failed;
          }
          double records = 0.0;
          for (const auto& s : stores) records += static_cast<double>(s->dedup_records());
          dedup_peak = std::max(dedup_peak, records);
          if (traced) {
            ops.push_back({shard_home(key), start, eng.now(), ok});
            if (ops.size() % 256 == 0) busy.drain(*cl);
          }
        }
        if (++workers_done == kWorkers) all_done.notify();
      });
    }
    while (workers_done < kWorkers) co_await all_done.wait();
    window.close(eng, rep);
    for (auto& n : nodes) n->stop();
  });
  eng.run();

  // Server state against the client ledger, read on each key's acting primary.
  auto primary_value = [&](const std::string& key) -> std::optional<std::vector<std::uint8_t>> {
    for (const auto& kv : kvs) {
      if (kv->acting_primary(map.shard_of(key))) return kv->peek(key);
    }
    return std::nullopt;
  };
  for (int key = 0; key < kKeysPerKind; ++key) {
    const auto k = static_cast<std::size_t>(key);
    const auto counter = primary_value(key_name(kIncr, key));
    std::uint64_t c = 0;
    if (counter && counter->size() == 8) std::memcpy(&c, counter->data(), 8);
    rep.check(counter && c == incr_acks[k], "counter " + key_name(kIncr, key) +
                                                " differs from its acked incr count");
    std::sort(incr_values[k].begin(), incr_values[k].end());
    for (std::size_t i = 0; i < incr_values[k].size(); ++i) {
      rep.check(incr_values[k][i] == i + 1, "incr results of " + key_name(kIncr, key) +
                                                " are not 1..n");
    }
    for (std::size_t i = 1; i < cas_wins[k].size(); ++i) {
      rep.check(cas_wins[k][i] > cas_wins[k][i - 1],
                "CAS versions of " + key_name(kCas, key) + " not strictly monotone");
    }
    const auto appended = primary_value(key_name(kAppend, key));
    rep.check(appended && appended->size() == 8 + kAppendBytes * append_acks[k],
              "size of " + key_name(kAppend, key) + " differs from its acked appends");
    std::sort(append_sizes[k].begin(), append_sizes[k].end());
    for (std::size_t i = 0; i < append_sizes[k].size(); ++i) {
      rep.check(append_sizes[k][i] == 8 + kAppendBytes * (i + 1),
                "append sizes of " + key_name(kAppend, key) + " skip or repeat");
    }
    const Last& last = set_last[k];
    const auto set_value = primary_value(key_name(kSet, key));
    rep.check(set_value && *set_value == (last.tag == 0 ? prefill_value(key)
                                                        : pattern(seed, kSet, last.tag, kValueBytes)),
              "final value of " + key_name(kSet, key) + " is not its last acked set");
  }
  for (int m = 0; m < kMailboxes; ++m) {
    const auto& got = delivered[static_cast<std::size_t>(m)];
    bool in_order = got.size() == sent[static_cast<std::size_t>(m)] + 1;
    for (std::size_t i = 0; in_order && i < got.size(); ++i) in_order = got[i] == i;
    rep.check(in_order, "mailbox " + key_name(kSend, m) + " did not receive every send "
                        "exactly once in order");
  }

  finish_rep(rep, latencies_us, (window.end - window.start).seconds(),
             rep.attempted - rep.failed);
  rep.det["store.dedup_records_peak"] = dedup_peak;
  if (traced) {
    busy.drain(*cl);
    std::vector<tcsvc::RpcNode*> rpc_nodes;
    for (const auto& n : nodes) rpc_nodes.push_back(n.get());
    analyse_trace(rep, std::move(ops), rpc_nodes, window.start, window.end - window.start, busy);
  }
  return rep;
}

}  // namespace perfbench
