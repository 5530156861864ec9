// fabric_stream: the paper's own kernels on the two-board cable (HT800).
//
// Three phases, each on a fresh cable and each a measured window:
//  * 48 B-payload ping-pong (the Fig. 7 kernel), with a seeded gap of up to
//    150 ns between iterations and a seeded payload that both sides check;
//  * a weakly ordered stream of 4 KiB stores (the Fig. 6 kernel: WC flush on
//    overflow, one Sfence and an outbound drain closing the window);
//  * a strict-ordered stream of 4 KiB puts (Sfence per cache line).
// No RPC runs and the receiver is passive during the streams, so host time
// here is per-packet WC, northbridge and link work. After each stream the
// receiver's memory is read back and must equal the last pass written.
#include <algorithm>
#include <cstring>
#include <memory>

#include "bench_util.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace tcc;

constexpr int kPingPongs = 20000;
constexpr std::uint32_t kPingBytes = 48;
constexpr std::uint64_t kMsgBytes = 4_KiB;
constexpr std::uint64_t kWeakBytes = 32_MiB;
constexpr std::uint64_t kStrictBytes = 8_MiB;
/// Host-time slice of the ~26 ms of simulated phases (~100 slices).
constexpr Picoseconds kSlice = Picoseconds::from_us(250.0);

struct Phase {
  std::unique_ptr<cluster::TcCluster> cl;
  Window window;
};

/// Create and boot one cable, charging the host time to set-up.
Phase make_phase(SetupTimes& setup) {
  Phase p;
  auto t0 = Clock::now();
  cluster::TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kCable;
  o.topology.nx = 2;
  o.topology.dram_per_chip = 64_MiB;
  o.boot.model_code_fetch = false;
  o.shared_bytes = 16_MiB;
  p.cl = cluster::TcCluster::create(o).value();
  setup.plan_s += seconds_since(t0);
  t0 = Clock::now();
  p.cl->boot().expect("boot");
  setup.boot_s += seconds_since(t0);
  return p;
}

/// One stream phase: `bytes` of 4 KiB messages into chip 1's shared region.
/// Message i carries base[(i / slots) % 2] stamped with i, so the last pass
/// over each slot is known and can be read back.
void stream_phase(Phase& p, Rep& rep, LinkBusy& busy, std::uint64_t seed, std::uint64_t bytes,
                  cluster::OrderingMode mode, double& mbps) {
  cluster::TcCluster& cl = *p.cl;
  auto* ep = cl.msg(0).connect(1).value();
  const std::uint64_t ring_sz = cl.driver(0).ring_region(1).size;
  const auto dest =
      cl.driver(0).map_remote(1, ring_sz + 4096, cl.driver(1).shared_bytes() - 4096).value();
  const std::uint64_t slots = dest.range().size / kMsgBytes;
  const std::uint64_t iters = bytes / kMsgBytes;
  std::vector<std::uint8_t> base[2];
  for (int b = 0; b < 2; ++b) {
    base[b].resize(kMsgBytes);
    fill_pattern(base[b].data(), kMsgBytes, seed, static_cast<std::uint64_t>(mode), b);
  }
  auto expected = [&](std::uint64_t i) {
    std::vector<std::uint8_t> v = base[(i / slots) % 2];
    std::memcpy(v.data(), &i, 8);
    return v;
  };

  cl.engine().spawn_fn([&]() -> sim::Task<void> {
    opteron::Core& core = cl.core(0);
    p.window.open(cl.engine(), kSlice);
    std::vector<std::uint8_t> payload;
    for (std::uint64_t i = 0; i < iters; ++i) {
      payload = base[(i / slots) % 2];
      std::memcpy(payload.data(), &i, 8);
      const std::uint64_t off = (i % slots) * kMsgBytes;
      if (mode == cluster::OrderingMode::kStrict) {
        (co_await ep->put(dest, off, payload, mode)).expect("put");
      } else {
        (co_await core.store_bytes(dest.at(off), payload)).expect("store");
      }
      if (i % 512 == 511) busy.drain(cl);
    }
    if (mode == cluster::OrderingMode::kWeaklyOrdered) {
      (co_await core.sfence()).expect("sfence");
      co_await cl.machine().chip(0).nb().drain_outbound();
    }
    p.window.close(cl.engine(), rep);
  });
  cl.engine().run();
  busy.drain(cl);
  mbps = static_cast<double>(iters * kMsgBytes) /
         (p.window.end - p.window.start).seconds() / 1e6;

  // Read back the slots the final pass (and the pass before, for the slots
  // it did not reach) left in the receiver's memory.
  std::vector<std::uint8_t> got(kMsgBytes);
  const std::uint64_t first = iters > slots ? iters - slots : 0;
  for (std::uint64_t i = first; i < iters; ++i) {
    cl.machine().chip(1).mc().peek(dest.at((i % slots) * kMsgBytes), got);
    rep.check(got == expected(i), "stream readback mismatch at message " + std::to_string(i));
  }
}

}  // namespace

Rep run_fabric_stream(std::uint64_t seed, bool traced) {
  Rep rep;
  rep.traced = traced;
  const std::uint64_t weak_msgs = kWeakBytes / kMsgBytes;
  const std::uint64_t strict_msgs = kStrictBytes / kMsgBytes;
  rep.attempted = kPingPongs + weak_msgs + strict_msgs;

  Phase pp = make_phase(rep.setup);
  Phase weak = make_phase(rep.setup);
  Phase strict = make_phase(rep.setup);
  LinkBusy busy;
  if (traced) {
    for (Phase* p : {&pp, &weak, &strict}) p->cl->enable_tracing(1u << 16);
  }

  // Seeded inputs: per-iteration gaps and ping/pong payloads.
  auto rng = stream(seed, 2);
  std::vector<Picoseconds> gaps(kPingPongs);
  std::uniform_int_distribution<std::int64_t> gap_ps(0, 149'999);
  for (auto& g : gaps) g = Picoseconds{gap_ps(rng)};
  auto payload = [&](int i, int side) {
    std::vector<std::uint8_t> v(kPingBytes);
    fill_pattern(v.data(), v.size(), seed, static_cast<std::uint64_t>(i), side);
    return v;
  };

  auto t0 = Clock::now();
  cluster::TcCluster& cl = *pp.cl;
  auto* ea = cl.msg(0).connect(1).value();
  auto* eb = cl.msg(1).connect(0).value();
  rep.setup.services_s = seconds_since(t0);

  // The kernel receives with recv_discard (header only, as Fig. 7 does), so
  // the payload check reads the receiver's ring directly, in zero simulated
  // time, before the slot can be reused.
  const AddrRange ring_at_b = cl.driver(1).ring(1, 0);
  const AddrRange ring_at_a = cl.driver(0).ring(0, 1);
  std::vector<std::uint8_t> ring_bytes(ring_at_b.size);
  auto landed = [&](int chip, const AddrRange& ring, const std::vector<std::uint8_t>& want) {
    cl.machine().chip(chip).mc().peek(ring.base, ring_bytes);
    return std::search(ring_bytes.begin(), ring_bytes.end(), want.begin(), want.end()) !=
           ring_bytes.end();
  };

  std::vector<double> half_rtt_us;
  half_rtt_us.reserve(kPingPongs);
  std::vector<OpSpan> ops;
  cl.engine().spawn_fn([&]() -> sim::Task<void> {
    pp.window.open(cl.engine(), kSlice);
    for (int i = 0; i < kPingPongs; ++i) {
      co_await cl.engine().delay(gaps[static_cast<std::size_t>(i)]);
      const Picoseconds t = cl.engine().now();
      const Status s = co_await ea->send(payload(i, 0));
      auto pong = co_await ea->recv_discard();
      const bool ok = s.ok() && pong.ok() && landed(0, ring_at_a, payload(i, 1));
      rep.check(ok, "pong " + std::to_string(i) + " lost or corrupted");
      if (!ok) ++rep.failed;
      const Picoseconds rtt = cl.engine().now() - t;
      half_rtt_us.push_back(rtt.microseconds() / 2.0);
      if (traced) {
        ops.push_back({1, t, cl.engine().now(), ok});
        if (ops.size() % 4096 == 0) busy.drain(cl);
      }
    }
    pp.window.close(cl.engine(), rep);
  });
  cl.engine().spawn_fn([&]() -> sim::Task<void> {
    for (int i = 0; i < kPingPongs; ++i) {
      auto ping = co_await eb->recv_discard();
      rep.check(ping.ok() && landed(1, ring_at_b, payload(i, 0)),
                "ping " + std::to_string(i) + " lost or corrupted");
      (co_await eb->send(payload(i, 1))).expect("pong");
    }
  });
  cl.engine().run();
  busy.drain(cl);

  double weak_mbps = 0.0, strict_mbps = 0.0;
  stream_phase(weak, rep, busy, seed, kWeakBytes, cluster::OrderingMode::kWeaklyOrdered,
               weak_mbps);
  stream_phase(strict, rep, busy, seed, kStrictBytes, cluster::OrderingMode::kStrict,
               strict_mbps);

  Picoseconds sim{};
  for (const Phase* p : {&pp, &weak, &strict}) sim += p->window.end - p->window.start;
  finish_rep(rep, half_rtt_us, sim.seconds(), rep.attempted - rep.failed);
  rep.det["stream_mbps"] = weak_mbps;
  rep.det["strict_mbps"] = strict_mbps;
  if (traced) analyse_trace(rep, std::move(ops), {}, Picoseconds{0}, sim, busy);
  return rep;
}

}  // namespace perfbench
