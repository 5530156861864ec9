// Reproducibility and protocol-detail tests: bit-identical reruns of whole
// system simulations, virtual-channel arbitration fairness, and randomized
// collective payloads.
#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"
#include "middleware/mpi.hpp"
#include "tcstore/serving.hpp"
#include "tcsvc/kv.hpp"

namespace tcc::cluster {
namespace {

/// Per chip: core loads and DRAM reads — modelled counters a poll model
/// must leave exactly as a literal poll loop charges them.
void append_load_counters(TcCluster& cl, std::vector<std::uint64_t>& fingerprint) {
  for (int c = 0; c < cl.num_nodes(); ++c) {
    fingerprint.push_back(cl.core(c).loads());
    fingerprint.push_back(cl.machine().chip(c).nb().mc().reads());
  }
}

/// Boot a cable cluster, run a mixed workload, and fingerprint the timeline.
/// The last entry is the engine's event count.
std::vector<std::uint64_t> run_workload_fingerprint(
    sim::Scheduler scheduler = sim::Scheduler::kCalendar,
    PollModel poll_model = PollModel::kElided) {
  TcCluster::Options o;
  o.scheduler = scheduler;
  o.poll_model = poll_model;
  o.topology.shape = topology::ClusterShape::kCable;
  o.topology.dram_per_chip = 32_MiB;
  auto created = TcCluster::create(o);
  created.expect("create");
  auto& cl = *created.value();
  cl.boot().expect("boot");

  std::vector<std::uint64_t> fingerprint;
  auto* tx = cl.msg(0).connect(1).value();
  auto* rx = cl.msg(1).connect(0).value();
  cl.engine().spawn_fn([&]() -> sim::Task<void> {
    Rng rng(77);
    for (int i = 0; i < 40; ++i) {
      std::vector<std::uint8_t> payload(rng.next_in(1, 500));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
      (co_await tx->send(payload)).expect("send");
      fingerprint.push_back(static_cast<std::uint64_t>(cl.engine().now().count()));
      // Idle stretches long enough for the receiver to drain its backlog
      // and run past its spin budget, so its poll backoff engages too.
      if (i % 8 == 7) co_await cl.engine().delay(Picoseconds::from_ns(40000.0 + 70.0 * i));
    }
  });
  cl.engine().spawn_fn([&]() -> sim::Task<void> {
    for (int i = 0; i < 40; ++i) {
      auto r = co_await rx->recv();
      r.expect("recv");
      fingerprint.push_back(static_cast<std::uint64_t>(cl.engine().now().count()) ^
                            (r.value().size() << 40));
    }
  });
  cl.engine().run();
  fingerprint.push_back(static_cast<std::uint64_t>(cl.engine().now().count()));
  fingerprint.push_back(rx->stats().backoff_sleeps);
  append_load_counters(cl, fingerprint);
  fingerprint.push_back(cl.engine().events_processed());
  return fingerprint;
}

TEST(Determinism, WholeSystemRunsAreBitIdentical) {
  // Boot + 40 random-size messages, twice: every timestamp, the event count
  // and the final time must match exactly. This is the property that makes
  // every other test in this repository debuggable.
  EXPECT_EQ(run_workload_fingerprint(), run_workload_fingerprint());
}

TEST(Determinism, CalendarMatchesHeapReferenceOnFullSystemRun) {
  // The whole-system timeline must be scheduler-independent: boot + rel
  // traffic on the calendar queue replays the binary-heap reference timeline
  // timestamp for timestamp. Event counts are excluded by construction (the
  // reference dispatches cancelled timers as dead no-ops), so drop the final
  // events_processed entry before diffing.
  auto cal = run_workload_fingerprint(sim::Scheduler::kCalendar);
  auto heap = run_workload_fingerprint(sim::Scheduler::kHeapReference);
  ASSERT_EQ(cal.size(), heap.size());
  cal.pop_back();
  heap.pop_back();
  EXPECT_EQ(cal, heap);
}

TEST(Determinism, ElidedPollsMatchLiteralPollsOnCable) {
  // The raw receiver waits with no deadline, so an elided wait parks with
  // no timer at all. Every timestamp, the final clock and the modelled load
  // counters must equal the literal poll loop's; only the event count (what
  // elision removes) may differ.
  auto literal = run_workload_fingerprint(sim::Scheduler::kCalendar, PollModel::kLiteral);
  auto elided = run_workload_fingerprint(sim::Scheduler::kCalendar, PollModel::kElided);
  ASSERT_EQ(literal.size(), elided.size());
  EXPECT_LT(elided.back(), literal.back());
  literal.pop_back();
  elided.pop_back();
  EXPECT_EQ(literal, elided);
}

std::span<const std::uint8_t> word_bytes(const std::uint64_t& v) {
  return {reinterpret_cast<const std::uint8_t*>(&v), 8};
}

/// Hand-posted zero-length messages whose marker lands 30 ns either side of
/// a receiver's fourth marker sample, one ns apart: exactly one lands on the
/// sample's own tick, which the literal read misses (it was queued 60 ns
/// earlier, the write's visibility only 40 ns earlier). Fingerprints each
/// receive's completion time.
std::vector<std::uint64_t> run_tie_fingerprint(PollModel poll_model) {
  TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kCable;
  o.topology.dram_per_chip = 32_MiB;
  o.poll_model = poll_model;
  auto created = TcCluster::create(o);
  created.expect("create");
  auto& cl = *created.value();
  cl.boot().expect("boot");
  auto* rx = cl.msg(1).connect(0).value();
  opteron::MemoryController& mc = cl.machine().chip(1).nb().mc();
  const AddrRange ring = cl.driver(1).ring(1, 0);

  std::vector<std::uint64_t> fingerprint;
  cl.engine().spawn_fn([&]() -> sim::Task<void> {
    for (int i = 0; i < 61; ++i) {
      const PhysAddr slot = ring.base + kSlotBytes * static_cast<std::uint64_t>(1 + i);
      const std::uint64_t len_crc = ~std::uint64_t{0} << 32;  // len 0, ~crc32c({})
      mc.poke(slot + MsgSlot::kLenOffset, word_bytes(len_crc));
      // Samples fall at entry + kLocalDramLoad + k * (kLocalDramLoad +
      // kPollLoopOverhead); post so the write lands near k = 3.
      const Picoseconds land = opteron::Core::kLocalDramLoad +
                               (opteron::Core::kLocalDramLoad + opteron::kPollLoopOverhead) * 3 +
                               Picoseconds::from_ns(static_cast<double>(i - 30));
      const std::uint64_t marker = static_cast<std::uint64_t>(i + 1);
      cl.engine().schedule(land - opteron::kMemWriteLatency,
                           [&mc, slot, marker] { mc.post_write(slot, word_bytes(marker)); });
      const Picoseconds entry = cl.engine().now();
      (co_await rx->recv_discard()).expect("recv");
      fingerprint.push_back(static_cast<std::uint64_t>((cl.engine().now() - entry).count()));
      // Push the ack now, so the next receive's first miss has none to flush.
      (co_await rx->flush_acks()).expect("flush");
      co_await cl.engine().delay(Picoseconds::from_us(1.0));
    }
  });
  cl.engine().run();
  return fingerprint;
}

TEST(Determinism, ElidedPollsMatchLiteralPollsOnWriteSampleTies) {
  const auto literal = run_tie_fingerprint(PollModel::kLiteral);
  ASSERT_EQ(literal.size(), 61u);
  EXPECT_EQ(literal, run_tie_fingerprint(PollModel::kElided));
}

/// Open-loop KV traffic on a 4-chip ring: every RPC pump is a tcrel
/// receiver whose raw waits pass 500 ns progress-slice deadlines, with idle
/// gaps long enough for the poll backoff to engage. Fingerprints each op's
/// completion, the load counters and the final clock; the last entry is the
/// event count.
std::vector<std::uint64_t> run_kv_ring_fingerprint(PollModel poll_model) {
  TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kRing;
  o.topology.nx = 4;
  o.topology.dram_per_chip = 64_MiB;
  o.boot.model_code_fetch = false;
  o.poll_model = poll_model;
  auto created = TcCluster::create(o);
  created.expect("create");
  auto& cl = *created.value();
  cl.boot().expect("boot");
  tcstore::ServingSpec spec;
  spec.servers = {1, 2, 3};
  tcstore::ServingCluster tier(cl, spec);
  tcsvc::KvClient client(cl, *tier.node(0), tier.map());

  std::vector<std::uint64_t> fingerprint;
  cl.engine().spawn_fn([&]() -> sim::Task<void> {
    Rng rng(99);
    for (int i = 0; i < 60; ++i) {
      const std::string key = "k" + std::to_string(rng.next_in(0, 15));
      if (rng.next_in(0, 3) == 0) {
        std::vector<std::uint8_t> value(rng.next_in(1, 200), static_cast<std::uint8_t>(i));
        (co_await client.put(key, value)).expect("put");
      } else {
        auto r = co_await client.get(key);
        if (!r.ok()) { EXPECT_EQ(r.error().code, ErrorCode::kNotFound); }
      }
      fingerprint.push_back(static_cast<std::uint64_t>(cl.engine().now().count()));
      co_await cl.engine().delay(Picoseconds::from_ns(static_cast<double>(rng.next_in(0, 3000))));
    }
    tier.stop();
  });
  cl.engine().run();
  fingerprint.push_back(static_cast<std::uint64_t>(cl.engine().now().count()));
  append_load_counters(cl, fingerprint);
  fingerprint.push_back(cl.engine().events_processed());
  return fingerprint;
}

TEST(Determinism, ElidedPollsMatchLiteralPollsOnKvRing) {
  auto literal = run_kv_ring_fingerprint(PollModel::kLiteral);
  auto elided = run_kv_ring_fingerprint(PollModel::kElided);
  ASSERT_EQ(literal.size(), elided.size());
  EXPECT_LT(elided.back(), literal.back());
  literal.pop_back();
  elided.pop_back();
  EXPECT_EQ(literal, elided);
}

/// Chaos-soak-shaped config: keepalives beating, scripted link-down +
/// CRC-storm faults, reliable traffic riding through the resulting
/// retransmits. Fingerprints every delivery plus the final clock.
std::vector<std::uint64_t> run_chaos_fingerprint(sim::Scheduler scheduler) {
  TcCluster::Options o;
  o.scheduler = scheduler;
  o.topology.shape = topology::ClusterShape::kCable;
  o.topology.dram_per_chip = 32_MiB;
  FaultEvent down;
  down.kind = FaultEvent::Kind::kLinkDown;
  down.link = 0;
  down.at = Picoseconds::from_us(60.0);
  down.duration = Picoseconds::from_us(40.0);
  o.faults.push_back(down);
  FaultEvent storm;
  storm.kind = FaultEvent::Kind::kCrcStorm;
  storm.link = 0;
  storm.at = Picoseconds::from_us(150.0);
  storm.duration = Picoseconds::from_us(30.0);
  storm.fault_rate = 0.5;
  o.faults.push_back(storm);

  auto created = TcCluster::create(o);
  created.expect("create");
  auto& cl = *created.value();
  cl.boot().expect("boot");
  cl.start_keepalives(Picoseconds::from_us(5.0), Picoseconds::from_us(25.0));

  std::vector<std::uint64_t> fingerprint;
  auto* tx = cl.rel(0).connect(1).value();
  auto* rx = cl.rel(1).connect(0).value();
  cl.engine().spawn_fn([&]() -> sim::Task<void> {
    Rng rng(4242);
    for (int i = 0; i < 30; ++i) {
      std::vector<std::uint8_t> payload(rng.next_in(1, 300));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
      (co_await tx->send(payload)).expect("send");
      co_await cl.engine().delay(Picoseconds::from_us(rng.next_in(1, 12)));
      fingerprint.push_back(static_cast<std::uint64_t>(cl.engine().now().count()));
    }
  });
  cl.engine().spawn_fn([&]() -> sim::Task<void> {
    for (int i = 0; i < 30; ++i) {
      auto r = co_await rx->recv();
      r.expect("recv");
      fingerprint.push_back(static_cast<std::uint64_t>(cl.engine().now().count()) ^
                            (r.value().size() << 40));
    }
    cl.stop_keepalives();
  });
  cl.engine().run();
  fingerprint.push_back(static_cast<std::uint64_t>(cl.engine().now().count()));
  return fingerprint;
}

TEST(Determinism, CalendarMatchesHeapReferenceUnderChaosFaults) {
  // Seeded chaos config (faults + keepalives + retransmits): both schedulers
  // must produce identical delivery timelines, and the run must drain — the
  // keepalive stop path exercises timer cancellation via Engine::wake.
  auto cal = run_chaos_fingerprint(sim::Scheduler::kCalendar);
  auto heap = run_chaos_fingerprint(sim::Scheduler::kHeapReference);
  ASSERT_EQ(cal.size(), heap.size());
  // The final clock is intentionally excluded: the heap reference drains
  // cancelled timers as dead no-op events, so its run() ends later (that
  // extra queue pollution is precisely what cancellation removes).
  cal.pop_back();
  heap.pop_back();
  EXPECT_EQ(cal, heap);
}

TEST(Determinism, BootStageTimingsAreReproducible) {
  auto boot_times = [] {
    TcCluster::Options o;
    o.topology.shape = topology::ClusterShape::kCable;
    o.topology.dram_per_chip = 32_MiB;
    auto created = TcCluster::create(o);
    created.expect("create");
    created.value()->boot().expect("boot");
    std::vector<std::int64_t> times;
    for (const auto& rec : created.value()->boot_sequencer().trace()) {
      times.push_back(rec.start.count());
      times.push_back(rec.end.count());
    }
    return times;
  };
  EXPECT_EQ(boot_times(), boot_times());
}

TEST(VirtualChannels, ResponsesInterleaveWithPostedFloods) {
  // Within a coherent Supernode, reads (non-posted + response VCs) must make
  // progress while the posted VC is saturated by a bulk write stream —
  // the deadlock-avoidance role of HT's three VCs (§III).
  TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kCable;
  o.topology.supernode_size = 2;  // coherent pair inside supernode 0
  o.topology.dram_per_chip = 32_MiB;
  auto created = TcCluster::create(o);
  ASSERT_TRUE(created.ok());
  auto& cl = *created.value();
  ASSERT_TRUE(cl.boot().ok());

  // Writer: core 0 of chip 0 floods chip 1's ring region (UC posted writes
  // over the coherent internal link).
  const AddrRange peer_rings = cl.driver(0).ring_region(1);
  bool flood_done = false;
  cl.engine().spawn_fn([&]() -> sim::Task<void> {
    opteron::Core& core = cl.core(0, 0);
    for (int i = 0; i < 300; ++i) {
      (co_await core.store_u64(peer_rings.base + 8u * (i % 400), i)).expect("store");
    }
    flood_done = true;
  });
  // Reader: core 1 of chip 0 does dependent reads from chip 1 concurrently.
  int reads_done = 0;
  Picoseconds last_read_time;
  cl.engine().spawn_fn([&]() -> sim::Task<void> {
    opteron::Core& core = cl.core(0, 1);
    for (int i = 0; i < 50; ++i) {
      auto r = co_await core.load_u64(peer_rings.base + 4096);
      EXPECT_TRUE(r.ok());
      if (r.ok()) ++reads_done;
    }
    last_read_time = cl.engine().now();
  });
  cl.engine().run();
  EXPECT_TRUE(flood_done);
  EXPECT_EQ(reads_done, 50);
  EXPECT_GT(last_read_time.count(), 0);
}

TEST(CollectiveFuzz, RandomPayloadBcastGatherAgree) {
  constexpr int n = 4;
  TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kRing;
  o.topology.nx = n;
  o.topology.dram_per_chip = 16_MiB;
  auto created = TcCluster::create(o);
  ASSERT_TRUE(created.ok());
  auto& cl = *created.value();
  ASSERT_TRUE(cl.boot().ok());

  std::vector<std::unique_ptr<middleware::Communicator>> comms;
  for (int r = 0; r < n; ++r) {
    comms.push_back(std::make_unique<middleware::Communicator>(cl, r));
  }

  Rng gen(4242);
  // Pre-generate bcast payloads for 6 rounds with rotating roots and sizes
  // spanning the single-message/stream boundary.
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int round = 0; round < 6; ++round) {
    std::vector<std::uint8_t> p(gen.next_in(1, 6000));
    for (auto& b : p) b = static_cast<std::uint8_t>(gen.next_u64());
    payloads.push_back(std::move(p));
  }

  std::vector<int> ok(static_cast<std::size_t>(n), 0);
  for (int r = 0; r < n; ++r) {
    cl.engine().spawn_fn([&, r]() -> sim::Task<void> {
      middleware::Communicator& comm = *comms[static_cast<std::size_t>(r)];
      bool all_ok = true;
      for (int round = 0; round < 6; ++round) {
        const int root = round % n;
        std::vector<std::uint8_t> data;
        if (r == root) data = payloads[static_cast<std::size_t>(round)];
        (co_await comm.bcast(data, root)).expect("bcast");
        if (data != payloads[static_cast<std::size_t>(round)]) all_ok = false;
        // Checksum agreement via gather at the root.
        std::uint64_t sum = 0;
        for (auto b : data) sum += b;
        auto g = co_await comm.gather_u64(sum, root);
        EXPECT_TRUE(g.ok());
        if (r == root && g.ok()) {
          for (const auto& v : g.value()) {
            if (v != sum) all_ok = false;
          }
        }
        (co_await comm.barrier()).expect("barrier");
      }
      ok[static_cast<std::size_t>(r)] = all_ok ? 1 : 0;
    });
  }
  cl.engine().run();
  for (int r = 0; r < n; ++r) EXPECT_EQ(ok[static_cast<std::size_t>(r)], 1) << r;
}

TEST(CollectiveFuzz, AllreduceMatchesLocalReductionForRandomInputs) {
  constexpr int n = 5;
  TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kRing;
  o.topology.nx = n;
  o.topology.dram_per_chip = 8_MiB;
  auto created = TcCluster::create(o);
  ASSERT_TRUE(created.ok());
  auto& cl = *created.value();
  ASSERT_TRUE(cl.boot().ok());

  Rng gen(31337);
  std::vector<std::uint64_t> inputs;
  for (int r = 0; r < n; ++r) inputs.push_back(gen.next_u64() >> 8);
  std::uint64_t expect_sum = 0, expect_min = ~0ull, expect_max = 0;
  for (auto v : inputs) {
    expect_sum += v;
    expect_min = std::min(expect_min, v);
    expect_max = std::max(expect_max, v);
  }

  std::vector<std::unique_ptr<middleware::Communicator>> comms;
  for (int r = 0; r < n; ++r) {
    comms.push_back(std::make_unique<middleware::Communicator>(cl, r));
  }
  int ok = 0;
  for (int r = 0; r < n; ++r) {
    cl.engine().spawn_fn([&, r]() -> sim::Task<void> {
      middleware::Communicator& comm = *comms[static_cast<std::size_t>(r)];
      const std::uint64_t mine = inputs[static_cast<std::size_t>(r)];
      auto s = co_await comm.allreduce_u64(mine, middleware::ReduceOp::kSum);
      auto mn = co_await comm.allreduce_u64(mine, middleware::ReduceOp::kMin);
      auto mx = co_await comm.allreduce_u64(mine, middleware::ReduceOp::kMax);
      EXPECT_TRUE(s.ok() && mn.ok() && mx.ok());
      if (s.ok() && mn.ok() && mx.ok() && s.value() == expect_sum &&
          mn.value() == expect_min && mx.value() == expect_max) {
        ++ok;
      }
    });
  }
  cl.engine().run();
  EXPECT_EQ(ok, n);
}

}  // namespace
}  // namespace tcc::cluster
