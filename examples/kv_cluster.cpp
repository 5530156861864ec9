// kv_cluster: the tcsvc serving stack on a 4-node mesh.
//
// A 2x2 mesh of 2-chip Supernodes (8 chips — §IV.E: single chips lack the
// HT ports for four mesh directions) serves a replicated key-value store:
// chip 0 runs the client, chips 1..7 each hold a slice of the shard space
// as primary for some shards and replica for others. A mixed
// read/write workload with Zipfian key popularity runs open-loop against
// it, and the example narrates what the serving layer did: placement,
// replication traffic, and exact latency percentiles.
#include <cstdio>

#include "common/strings.hpp"
#include "tcstore/serving.hpp"
#include "tcsvc/load.hpp"

using namespace tcc;

int main() {
  std::printf("== kv_cluster: replicated KV serving on a 2x2 Supernode mesh ==\n\n");

  cluster::TcCluster::Options options;
  options.topology.shape = topology::ClusterShape::kMesh2D;
  options.topology.nx = 2;
  options.topology.ny = 2;
  options.topology.supernode_size = 2;
  options.topology.dram_per_chip = 32_MiB;
  options.boot.model_code_fetch = false;

  auto created = cluster::TcCluster::create(options);
  created.expect("create");
  cluster::TcCluster& cl = *created.value();
  cl.boot().expect("boot");
  const int n = cl.num_nodes();
  std::printf("booted %d chips in %d mesh nodes; global space %s\n\n", n,
              static_cast<int>(cl.plan().supernodes().size()),
              format_bytes(cl.plan().global_range().size).c_str());

  // Placement: consistent hashing (rendezvous) over the server set, so
  // every server primaries some shards and backs up others. The serving
  // tier puts an RPC node on every chip and a KV service on every server.
  tcstore::ServingSpec spec;
  for (int chip = 1; chip < n; ++chip) spec.servers.push_back(chip);
  tcstore::ServingCluster tier(cl, spec);
  std::printf("%s\n", tier.map().describe().c_str());
  tcsvc::KvClient client(cl, *tier.node(0), tier.map(), spec.kv);

  // Mixed workload: 80% reads, Zipfian hot keys, open-loop Poisson
  // arrivals — queueing shows up as latency, never as throttled offering.
  tcsvc::LoadConfig load_cfg;
  load_cfg.offered_rps = 200e3;
  load_cfg.read_fraction = 0.8;
  load_cfg.keys = 128;
  load_cfg.duration = Picoseconds::from_us(500.0);
  tcsvc::LoadGenerator gen(cl, client, load_cfg);

  cl.engine().spawn_fn([&]() -> sim::Task<void> {
    (co_await gen.prefill()).expect("prefill");
    co_await gen.run();
    tier.stop();
  });
  cl.engine().run();

  tcsvc::LoadReport rep = gen.report();  // percentile() sorts: mutable copy
  std::printf("workload: %llu offered (%llu reads / %llu writes), "
              "%llu completed, %llu failed\n",
              static_cast<unsigned long long>(rep.offered),
              static_cast<unsigned long long>(rep.reads),
              static_cast<unsigned long long>(rep.writes),
              static_cast<unsigned long long>(rep.completed),
              static_cast<unsigned long long>(rep.failed));
  std::printf("goodput %.0f krps; latency p50 %.2f us, p99 %.2f us, "
              "p99.9 %.2f us; SLO %s\n\n",
              rep.goodput_rps() / 1e3, rep.latency_ns.percentile(50.0) / 1e3,
              rep.latency_ns.percentile(99.0) / 1e3,
              rep.latency_ns.percentile(99.9) / 1e3,
              rep.within_slo(load_cfg.slo) ? "met" : "violated");

  std::printf("per-server traffic (every write lands on two chips):\n");
  std::uint64_t repl_out = 0;
  for (int chip = 1; chip < n; ++chip) {
    const tcsvc::KvStats& s = tier.kv(chip)->stats();
    std::printf("  chip %d: %5llu gets  %5llu puts  %5llu repl-in  %5llu repl-out\n",
                chip, static_cast<unsigned long long>(s.gets),
                static_cast<unsigned long long>(s.puts),
                static_cast<unsigned long long>(s.replications_in),
                static_cast<unsigned long long>(s.replications_out));
    repl_out += s.replications_out;
  }
  std::printf("(%llu replications crossed the mesh — one per acked write, "
              "version-gated on the replica)\n",
              static_cast<unsigned long long>(repl_out));

  const bool ok = rep.failed == 0 && rep.completed == rep.offered;
  std::printf("\n%s\n", ok ? "OK: every request served, both copies consistent"
                           : "MISMATCH: requests failed");
  return ok ? 0 : 1;
}
