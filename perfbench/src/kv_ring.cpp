// kv_ring: read-heavy open-loop KV serving on the paper-scale 4-chip ring.
//
// Chip 0 is the client, chips 1-3 serve. Arrivals are Poisson at 500 krps
// (below the ~1.4 Mrps knee), keys Zipf(0.99) over 256 keys, 90% get /
// 10% put of 128 B values. Latency runs from each request's due time; the
// generator is a simulated process, so it is never late.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>

#include "harness.hpp"
#include "tcsvc/kv.hpp"

namespace perfbench {
namespace {

using namespace tcc;

constexpr int kKeys = 256;
constexpr int kOps = 20000;
constexpr double kRatePerSec = 500e3;
constexpr double kReadFraction = 0.9;
constexpr double kZipfTheta = 0.99;
constexpr std::size_t kValueBytes = 128;
constexpr std::uint32_t kPrefillOp = 0xffffffffu;
/// Host-time slice of the ~40 ms simulated window (~80 slices).
constexpr Picoseconds kSlice = Picoseconds::from_us(500.0);

struct Arrival {
  Picoseconds at;  ///< offset from window start
  bool get = true;
  int key = 0;
};

/// YCSB bounded Zipfian ranks, scrambled onto keys by a seeded permutation.
std::vector<Arrival> make_arrivals(std::uint64_t seed) {
  auto rng = stream(seed, 1);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  double zetan = 0.0;
  for (int i = 1; i <= kKeys; ++i) zetan += 1.0 / std::pow(i, kZipfTheta);
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, kZipfTheta);
  const double alpha = 1.0 / (1.0 - kZipfTheta);
  const double eta = (1.0 - std::pow(2.0 / kKeys, 1.0 - kZipfTheta)) / (1.0 - zeta2 / zetan);
  std::vector<int> key_of_rank(kKeys);
  std::iota(key_of_rank.begin(), key_of_rank.end(), 0);
  std::shuffle(key_of_rank.begin(), key_of_rank.end(), rng);

  std::exponential_distribution<double> gap_s(kRatePerSec);
  std::vector<Arrival> out(kOps);
  double t = 0.0;
  for (Arrival& a : out) {
    t += gap_s(rng);
    a.at = Picoseconds{static_cast<std::int64_t>(t * 1e12)};
    a.get = u(rng) < kReadFraction;
    const double uz = u(rng);
    const double uzn = uz * zetan;
    int rank = 0;
    if (uzn < 1.0) {
      rank = 0;
    } else if (uzn < zeta2) {
      rank = 1;
    } else {
      rank = static_cast<int>(kKeys * std::pow(eta * uz - eta + 1.0, alpha));
    }
    a.key = key_of_rank[static_cast<std::size_t>(std::min(rank, kKeys - 1))];
  }
  return out;
}

std::string key_name(int key) { return "k" + std::to_string(key); }

/// Value = [u32 key][u32 op index] + seeded filler; a reader regenerates it.
std::vector<std::uint8_t> make_value(std::uint64_t seed, int key, std::uint32_t op) {
  std::vector<std::uint8_t> v(kValueBytes);
  const auto k = static_cast<std::uint32_t>(key);
  std::memcpy(v.data(), &k, 4);
  std::memcpy(v.data() + 4, &op, 4);
  fill_pattern(v.data() + 8, kValueBytes - 8, seed, k, op);
  return v;
}

}  // namespace

Rep run_kv_ring(std::uint64_t seed, bool traced) {
  const std::vector<Arrival> arrivals = make_arrivals(seed);
  Rep rep;
  rep.traced = traced;
  rep.attempted = arrivals.size();

  const auto t0 = Clock::now();
  cluster::TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kRing;
  o.topology.nx = 4;
  o.topology.dram_per_chip = 64_MiB;
  o.boot.model_code_fetch = false;
  auto cl = cluster::TcCluster::create(o).value();
  rep.setup.plan_s = seconds_since(t0);
  const auto t1 = Clock::now();
  cl->boot().expect("boot");
  rep.setup.boot_s = seconds_since(t1);

  const auto t2 = Clock::now();
  const std::vector<int> servers = {1, 2, 3};
  const std::vector<int> participants = {0, 1, 2, 3};
  tcsvc::KvConfig kv_cfg;
  tcsvc::RpcConfig rpc_cfg;
  if (traced) rpc_cfg.max_spans = 1u << 20;
  auto map = tcsvc::ShardMap::from_plan(cl->plan(), servers, kv_cfg.shards);
  std::vector<std::unique_ptr<tcsvc::RpcNode>> nodes;
  for (int chip : participants) {
    nodes.push_back(std::make_unique<tcsvc::RpcNode>(*cl, chip, rpc_cfg));
  }
  std::vector<std::unique_ptr<tcsvc::KvService>> services;
  for (int chip : servers) {
    services.push_back(std::make_unique<tcsvc::KvService>(
        *cl, *nodes[static_cast<std::size_t>(chip)], map, kv_cfg));
    services.back()->start();
    nodes[static_cast<std::size_t>(chip)]->start(participants).expect("rpc start");
  }
  tcsvc::KvClient client(*cl, *nodes[0], map, kv_cfg);
  rep.setup.services_s = seconds_since(t2);

  sim::Engine& eng = cl->engine();
  struct PutRecord {
    std::uint64_t version = 0;
    std::uint32_t op = kPrefillOp;
  };
  std::vector<PutRecord> last_acked(kKeys);  // highest acked version per key
  std::vector<double> latencies_us;
  latencies_us.reserve(arrivals.size());
  std::vector<OpSpan> ops;
  LinkBusy busy;
  Window window;
  int done = 0;
  sim::Trigger all_done(eng);

  const auto t3 = Clock::now();
  eng.spawn_fn([&]() -> sim::Task<void> {
    for (int k = 0; k < kKeys; ++k) {
      auto r = co_await client.put(key_name(k), make_value(seed, k, kPrefillOp));
      rep.check(r.ok(), "prefill put failed for " + key_name(k));
      if (r.ok()) last_acked[static_cast<std::size_t>(k)] = {r.value(), kPrefillOp};
    }
    // ---- measured window ----
    rep.setup.prefill_s = seconds_since(t3);
    if (traced) cl->enable_tracing(1u << 16);
    window.open(eng, kSlice);
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const Arrival a = arrivals[i];
      const Picoseconds due = window.start + a.at;
      if (due > eng.now()) co_await eng.delay(due - eng.now());
      eng.spawn_fn([&, a, due, i]() -> sim::Task<void> {
        const std::string key = key_name(a.key);
        const int peer = client.shard_map().primary(client.shard_map().shard_of(key));
        bool ok = false;
        if (a.get) {
          auto r = co_await client.get(key);
          ok = r.ok();
          if (ok) {
            const auto& v = r.value();
            std::uint32_t k = 0, op = 0;
            bool intact = v.size() == kValueBytes;
            if (intact) {
              std::memcpy(&k, v.data(), 4);
              std::memcpy(&op, v.data() + 4, 4);
              intact = static_cast<int>(k) == a.key &&
                       (op == kPrefillOp ||
                        (op < arrivals.size() && !arrivals[op].get &&
                         arrivals[op].key == a.key &&
                         window.start + arrivals[op].at <= eng.now())) &&
                       v == make_value(seed, a.key, op);
            }
            rep.check(intact, "get " + key + " returned a value never written to it");
          }
        } else {
          auto r = co_await client.put(key, make_value(seed, a.key, static_cast<std::uint32_t>(i)));
          ok = r.ok();
          if (ok) {
            PutRecord& last = last_acked[static_cast<std::size_t>(a.key)];
            if (r.value() > last.version) last = {r.value(), static_cast<std::uint32_t>(i)};
          }
        }
        if (ok) {
          latencies_us.push_back((eng.now() - due).microseconds());
        } else {
          ++rep.failed;
        }
        if (traced) {
          ops.push_back({peer, due, eng.now(), ok});
          if (ops.size() % 4096 == 0) busy.drain(*cl);
        }
        if (++done == static_cast<int>(arrivals.size())) all_done.notify();
      });
    }
    while (done < static_cast<int>(arrivals.size())) co_await all_done.wait();
    window.close(eng, rep);
    for (auto& n : nodes) n->stop();
  });
  eng.run();

  // After the window: every key on its acting primary holds the last acked put.
  for (int k = 0; k < kKeys; ++k) {
    const std::string key = key_name(k);
    const int shard = map.shard_of(key);
    const PutRecord& last = last_acked[static_cast<std::size_t>(k)];
    bool found = false;
    for (const auto& s : services) {
      if (!s->acting_primary(shard)) continue;
      found = true;
      const auto v = s->peek(key);
      rep.check(v.has_value() && *v == make_value(seed, k, last.op) &&
                    s->version_of(key) == last.version,
                "final value of " + key + " is not its last acked put");
    }
    rep.check(found, "no acting primary for " + key);
  }

  finish_rep(rep, latencies_us, (window.end - window.start).seconds(),
             arrivals.size() - rep.failed);
  if (traced) {
    busy.drain(*cl);
    std::vector<tcsvc::RpcNode*> rpc_nodes;
    for (const auto& n : nodes) rpc_nodes.push_back(n.get());
    analyse_trace(rep, std::move(ops), rpc_nodes, window.start, window.end - window.start, busy);
  }
  return rep;
}

}  // namespace perfbench
