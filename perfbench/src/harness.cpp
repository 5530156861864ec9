#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "bench_util.hpp"
#include "ht/timing.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/metrics.hpp"
#include "tcstore/store.hpp"

namespace perfbench {

using tcc::Picoseconds;

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

namespace {

/// Registry counters read around the window (docs/OBSERVABILITY.md names).
const std::vector<std::string>& counter_names() {
  static const std::vector<std::string> names = {
      "opteron.nb.dram_hits",
      "opteron.nb.requests_forwarded",
      "opteron.nb.route_lookups",
      "opteron.wc.flush_full_line",
      "opteron.wc.flush_eviction",
      "opteron.wc.flush_fence",
      "opteron.wc.packets_emitted",
      "ht.link.packets_sent.posted",
      "ht.link.bytes_sent.posted",
      "ht.link.credit_stalls",
      "ht.link.crc_retries",
      "tccluster.msg.sends",
      "tccluster.msg.bytes_sent",
      "tccluster.msg.credit_stalls",
      "tccluster.msg.coalesce.packed_msgs",
      "tccluster.msg.polls",
      "tccluster.rel.sends",
      "tccluster.rel.delivered",
      "tccluster.rel.retransmits",
      "tccluster.rel.backpressure_stalls",
      "tccluster.rel.ack_batch.published",
      "tcsvc.rpc.calls",
      "tcsvc.rpc.credit_stalls",
      "tcsvc.rpc.timeouts",
      "tcsvc.rpc.backpressure",
      "tcsvc.kv.puts",
      "tcsvc.kv.misses",
      "tcsvc.kv.replications",
      "tcstore.store.replicated_ops",
      "tcstore.store.dedup_pruned",
      "tcstore.store.cas_ops",
      "tcstore.store.cas_conflicts",
      "tcstore.mailbox.sends",
      "tcstore.mailbox.delivered",
  };
  return names;
}

constexpr const char* kPeakQueue = "engine.queue_depth_peak";

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Counters Counters::take(const std::vector<const tcc::sim::Engine*>& engines) {
  Counters c;
  auto& reg = tcc::telemetry::MetricsRegistry::global();
  for (const std::string& name : counter_names()) {
    c.v[name] = static_cast<double>(reg.counter(name).value());
  }
  double events = 0, cancelled = 0, heap = 0, peak = 0;
  for (const tcc::sim::Engine* e : engines) {
    const auto s = e->stats();
    events += static_cast<double>(e->events_processed());
    cancelled += static_cast<double>(s.timers_cancelled);
    heap += static_cast<double>(s.callable_heap_allocs);
    peak = std::max(peak, static_cast<double>(s.peak_queue_depth));
  }
  c.v["engine.events"] = events;
  c.v["engine.timers_cancelled"] = cancelled;
  c.v["engine.callable_heap_allocs"] = heap;
  c.v[kPeakQueue] = peak;
  return c;
}

Counters Counters::minus(const Counters& before) const {
  Counters d;
  for (const auto& [k, x] : v) d.v[k] = k == kPeakQueue ? x : x - before.get(k);
  return d;
}

Counters Counters::plus(const Counters& other) const {
  Counters s = *this;
  for (const auto& [k, x] : other.v) {
    s.v[k] = k == kPeakQueue ? std::max(s.get(k), x) : s.get(k) + x;
  }
  return s;
}

double Counters::get(const std::string& name) const {
  const auto it = v.find(name);
  return it == v.end() ? 0.0 : it->second;
}

void LinkBusy::drain(tcc::cluster::TcCluster& cl) {
  if (!cl.tracing_enabled()) return;
  for (int link = 0; link < cl.machine().num_links(); ++link) {
    tcc::ht::LinkTracer* t = cl.tracer(link);
    for (const tcc::ht::PacketTrace& r : t->records()) {
      // arrived = departed + serialization (+ CRC replays) + PHY latency.
      busy_ps_[{link, r.from}] +=
          static_cast<double>((r.arrived - r.departed - tcc::ht::kPhyLatency).count());
    }
    drops_ += t->dropped();
    t->clear();
  }
}

double LinkBusy::hottest_ps() const {
  double hot = 0.0;
  for (const auto& [k, ps] : busy_ps_) hot = std::max(hot, ps);
  return hot;
}

void fill_pattern(std::uint8_t* out, std::size_t n, std::uint64_t seed, std::uint64_t a,
                  std::uint64_t b) {
  std::uint64_t x = seed ^ (a * 0x9e3779b97f4a7c15ull) ^ (b * 0xc2b2ae3d27d4eb4full);
  for (std::size_t i = 0; i < n; i += 8) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    std::memcpy(out + i, &z, std::min<std::size_t>(8, n - i));
  }
}

void finish_rep(Rep& rep, std::vector<double> latencies_us, double window_s,
                std::uint64_t ops) {
  auto& d = rep.det;
  const Counters& w = rep.window;
  const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
  d["p50_us"] = percentile(latencies_us, 50.0);
  d["p99_us"] = percentile(latencies_us, 99.0);
  d["p999_us"] = percentile(latencies_us, 99.9);
  d["latency_samples"] = static_cast<double>(latencies_us.size());
  d["host_slices"] = static_cast<double>(rep.run_slices.size());
  d["goodput_kops"] = ratio(static_cast<double>(ops), window_s) / 1e3;
  d["events_per_op"] = w.get("engine.events") / n;

  d["sim.timers_cancelled_per_op"] = w.get("engine.timers_cancelled") / n;
  d["sim.callable_heap_allocs_per_op"] = w.get("engine.callable_heap_allocs") / n;
  d["sim.queue_depth_peak"] = w.get(kPeakQueue);

  d["opteron.dram_reads_per_op"] = w.get("opteron.nb.dram_hits") / n;
  d["opteron.nb_forwards_per_op"] = w.get("opteron.nb.requests_forwarded") / n;
  d["opteron.nb_route_lookups_per_op"] = w.get("opteron.nb.route_lookups") / n;
  d["opteron.wc_flushes_per_op"] =
      (w.get("opteron.wc.flush_full_line") + w.get("opteron.wc.flush_eviction") +
       w.get("opteron.wc.flush_fence")) / n;
  d["opteron.wc_packets_per_op"] = w.get("opteron.wc.packets_emitted") / n;

  d["ht.posted_packets_per_op"] = w.get("ht.link.packets_sent.posted") / n;
  d["ht.posted_bytes_per_op"] = w.get("ht.link.bytes_sent.posted") / n;
  d["ht.credit_stalls_per_op"] = w.get("ht.link.credit_stalls") / n;
  d["ht.crc_retries"] = w.get("ht.link.crc_retries");

  const double msg_sends = w.get("tccluster.msg.sends");
  d["msg.sends_per_op"] = msg_sends / n;
  d["msg.bytes_per_op"] = w.get("tccluster.msg.bytes_sent") / n;
  d["msg.credit_stalls_per_op"] = w.get("tccluster.msg.credit_stalls") / n;
  d["msg.packed_ratio"] = ratio(w.get("tccluster.msg.coalesce.packed_msgs"), msg_sends);
  d["msg.explicit_polls_per_op"] = w.get("tccluster.msg.polls") / n;

  const double rel_sends = w.get("tccluster.rel.sends");
  d["rel.sends_per_op"] = rel_sends / n;
  d["rel.acks_published_per_op"] = w.get("tccluster.rel.ack_batch.published") / n;
  d["rel.retransmits_per_op"] = w.get("tccluster.rel.retransmits") / n;
  d["rel.delivered_ratio"] = ratio(w.get("tccluster.rel.delivered"), rel_sends);
  d["rel.backpressure_stalls_per_op"] = w.get("tccluster.rel.backpressure_stalls") / n;

  d["rpc.calls_per_op"] = w.get("tcsvc.rpc.calls") / n;
  d["rpc.credit_stalls_per_op"] = w.get("tcsvc.rpc.credit_stalls") / n;
  d["rpc.timeouts"] = w.get("tcsvc.rpc.timeouts");
  d["rpc.backpressure"] = w.get("tcsvc.rpc.backpressure");

  d["kv.replications_per_put"] =
      ratio(w.get("tcsvc.kv.replications"), w.get("tcsvc.kv.puts"));
  d["kv.misses"] = w.get("tcsvc.kv.misses");

  d["store.replicated_ops_per_op"] = w.get("tcstore.store.replicated_ops") / n;
  d["store.dedup_pruned_per_op"] = w.get("tcstore.store.dedup_pruned") / n;
  d["store.cas_conflict_ratio"] =
      ratio(w.get("tcstore.store.cas_conflicts"), w.get("tcstore.store.cas_ops"));
  d["store.mailbox_delivered_ratio"] =
      ratio(w.get("tcstore.mailbox.delivered"), w.get("tcstore.mailbox.sends"));
  if (d.find("store.dedup_records_peak") == d.end()) d["store.dedup_records_peak"] = 0.0;
}

void Window::open(tcc::sim::Engine& eng, Picoseconds slice) {
  stamps_ = {Clock::now()};
  c0_ = Counters::take({&eng});
  start = eng.now();
  open_ = true;
  eng.spawn_fn([this, &eng, slice]() -> tcc::sim::Task<void> {
    while (open_) {
      co_await eng.delay(slice);
      if (open_) stamps_.push_back(Clock::now());
    }
  });
}

void Window::close(const tcc::sim::Engine& eng, Rep& rep) {
  end = eng.now();
  rep.window = rep.window.plus(Counters::take({&eng}).minus(c0_));
  stamps_.push_back(Clock::now());
  open_ = false;
  for (std::size_t i = 1; i < stamps_.size(); ++i) {
    rep.run_slices.push_back(stamps_[i] - stamps_[i - 1]);
  }
  rep.run_s += stamps_.back() - stamps_.front();
}

void analyse_trace(Rep& rep, std::vector<OpSpan> ops,
                   const std::vector<tcc::tcsvc::RpcNode*>& nodes,
                   Picoseconds window_start, Picoseconds window, const LinkBusy& busy) {
  using tcc::tcsvc::RpcSpan;
  auto& m = rep.span_metrics;
  const auto us = [](const RpcSpan& s) { return (s.end - s.start).microseconds(); };

  // (caller, callee, channel, corr) -> server span duration.
  std::map<std::tuple<int, int, int, std::uint32_t>, double> server_us;
  std::vector<double> client, server, fabric, replicate;
  for (const tcc::tcsvc::RpcNode* node : nodes) {
    for (const RpcSpan& s : node->spans()) {
      if (s.start < window_start || !s.server) continue;
      server.push_back(us(s));
      server_us[{s.peer, node->chip(), s.channel, s.corr}] = us(s);
    }
  }
  // Client spans of the op-issuing chip, per callee, in start order.
  std::map<int, std::vector<const RpcSpan*>> op_calls;
  std::uint64_t dropped = 0;
  for (const tcc::tcsvc::RpcNode* node : nodes) {
    dropped += node->spans_dropped();
    for (const RpcSpan& s : node->spans()) {
      if (s.start < window_start || s.server) continue;
      client.push_back(us(s));
      if (s.method == tcc::tcsvc::kKvReplicate || s.method == tcc::tcstore::kStoreReplicateOp) {
        replicate.push_back(us(s));
      }
      const auto it = server_us.find({node->chip(), s.peer, s.channel, s.corr});
      if (it != server_us.end()) fabric.push_back(us(s) - it->second);
      if (node->chip() == kClientChip) op_calls[s.peer].push_back(&s);
    }
  }
  for (auto& [peer, calls] : op_calls) {
    std::stable_sort(calls.begin(), calls.end(),
                     [](const RpcSpan* a, const RpcSpan* b) { return a->start < b->start; });
  }

  // Self time of an op: its span minus its first RPC client call (the one
  // call a fault-free op makes) — routing, retry and backoff.
  std::vector<double> self;
  std::map<int, std::size_t> cursor;
  std::stable_sort(ops.begin(), ops.end(),
                   [](const OpSpan& a, const OpSpan& b) { return a.start < b.start; });
  for (const OpSpan& op : ops) {
    double child = 0.0;
    auto& calls = op_calls[op.peer];
    std::size_t& c = cursor[op.peer];
    while (c < calls.size() && calls[c]->start < op.start) ++c;
    if (c < calls.size() && calls[c]->end <= op.end) {
      child = us(*calls[c]);
      ++c;
    }
    self.push_back((op.end - op.start).microseconds() - child);
  }

  m["rpc.client_us.p50"] = percentile(client, 50.0);
  m["rpc.client_us.p99"] = percentile(client, 99.0);
  m["rpc.server_us.p50"] = percentile(server, 50.0);
  m["rpc.server_us.p99"] = percentile(server, 99.0);
  m["rpc.fabric_us.p50"] = percentile(fabric, 50.0);
  m["rpc.fabric_us.p99"] = percentile(fabric, 99.0);
  m["rpc.spans_dropped"] = static_cast<double>(dropped);
  m["kv.replicate_us.p99"] = percentile(replicate, 99.0);
  m["op.self_us.p50"] = percentile(self, 50.0);
  m["op.self_us.p99"] = percentile(self, 99.0);
  m["ht.hot_link_busy_pct"] =
      window.count() > 0 ? 100.0 * busy.hottest_ps() / static_cast<double>(window.count()) : 0.0;
  m["ht.trace_drops"] = static_cast<double>(busy.drops());

  tcc::telemetry::ChromeTraceWriter w;
  constexpr int kOpsPid = 8000;
  w.set_process_name(kOpsPid, "perfbench client ops (chip " + std::to_string(kClientChip) + ")");
  for (const OpSpan& op : ops) {
    w.complete(kOpsPid, 0, op.start.count(), (op.end - op.start).count(),
               op.ok ? "op" : "op (failed)", "perfbench",
               {tcc::telemetry::ChromeTraceWriter::arg_num(
                   "peer", static_cast<double>(op.peer))});
  }
  tcc::tcsvc::export_rpc_spans(w, nodes);
  rep.perfetto_json = w.json();
}

double PaperProbe::fidelity_err_pct() const {
  // Paper figures (EXPERIMENTS.md, "Figure 6" and "Figure 7" sections):
  // 227 ns half-RTT at 64 B; weak-ordered plateau ~2700 MB/s; strict ~2000.
  constexpr double kPaperHalfRttNs = 227.0;
  constexpr double kPaperWeakMbps = 2700.0;
  constexpr double kPaperStrictMbps = 2000.0;
  // Compared at the precision the figures are published in: whole ns and
  // whole MB/s, as the fig7_latency / fig6_bandwidth tables print them.
  const auto err = [](double sim, double paper) {
    return std::abs(std::round(sim) - paper) / paper;
  };
  const double errs[] = {err(half_rtt_ns, kPaperHalfRttNs), err(weak_mbps, kPaperWeakMbps),
                         err(strict_mbps, kPaperStrictMbps)};
  return 100.0 * *std::max_element(std::begin(errs), std::end(errs));
}

PaperProbe run_paper_probe() {
  using namespace tcc;
  PaperProbe p;
  {
    auto cl = bench::make_cable();
    p.half_rtt_ns = bench::pingpong_ns(*cl, 0, 1, 48, 200);
  }
  {
    auto cl = bench::make_cable();
    p.weak_mbps =
        bench::stream_put_mbps(*cl, 4_KiB, 2_MiB, cluster::OrderingMode::kWeaklyOrdered);
  }
  {
    auto cl = bench::make_cable();
    p.strict_mbps =
        bench::stream_put_mbps(*cl, 4_KiB, 2_MiB, cluster::OrderingMode::kStrict);
  }
  return p;
}

}  // namespace perfbench
