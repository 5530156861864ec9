// perfbench: one benchmark for simulator cost and modelled-cluster latency.
//
//   perfbench --workload <kv_ring|store_torus|fabric_stream> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file.json>]
//             [--dump-det <file.json>]
//
// Repeats the workload (fresh cluster, same seed) until --seconds of host
// time have passed and at least three reps ran, asserts that every rep gave
// identical deterministic figures, and prints a table followed by one JSON
// line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics; --trace 1 interleaves untraced and traced reps
// and reports the per-layer metrics, writing the traced rep's spans to
// --trace-out as Perfetto JSON. --dump-det writes every deterministic figure
// (simulated metrics and per-layer counts) for cross-process comparison.
// Exits 1 when any check fails.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <numeric>
#include <string>

#include "harness.hpp"

namespace {

using perfbench::Rep;

struct Metric {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (--trace 0), in BENCHMARK.json order.
const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"},           {"run_s", "s"},
    {"events_per_op", "count"}, {"peak_rss_mb", "MB"},
    {"p50_us", "sim_us"},       {"p99_us", "sim_us"},
    {"p999_us", "sim_us"},      {"goodput_kops", "kops/sim_s"},
    {"stream_mbps", "MB/sim_s"}, {"fidelity_err_pct", "%"},
};

/// Per-layer metrics (--trace 1), in BENCHMARK.json order.
const std::vector<Metric> kPerLayer = {
    {"setup.plan_s", "s"},
    {"setup.boot_s", "s"},
    {"setup.services_s", "s"},
    {"setup.prefill_s", "s"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.timers_cancelled_per_op", "count"},
    {"sim.callable_heap_allocs_per_op", "count"},
    {"sim.queue_depth_peak", "count"},
    {"opteron.dram_reads_per_op", "count"},
    {"opteron.nb_forwards_per_op", "count"},
    {"opteron.nb_route_lookups_per_op", "count"},
    {"opteron.wc_flushes_per_op", "count"},
    {"opteron.wc_packets_per_op", "count"},
    {"ht.posted_packets_per_op", "count"},
    {"ht.posted_bytes_per_op", "bytes"},
    {"ht.credit_stalls_per_op", "count"},
    {"ht.crc_retries", "count"},
    {"ht.hot_link_busy_pct", "%"},
    {"msg.sends_per_op", "count"},
    {"msg.bytes_per_op", "bytes"},
    {"msg.credit_stalls_per_op", "count"},
    {"msg.packed_ratio", "ratio"},
    {"msg.explicit_polls_per_op", "count"},
    {"rel.sends_per_op", "count"},
    {"rel.acks_published_per_op", "count"},
    {"rel.retransmits_per_op", "count"},
    {"rel.delivered_ratio", "ratio"},
    {"rel.backpressure_stalls_per_op", "count"},
    {"rpc.calls_per_op", "count"},
    {"rpc.credit_stalls_per_op", "count"},
    {"rpc.timeouts", "count"},
    {"rpc.backpressure", "count"},
    {"rpc.client_us.p50", "sim_us"},
    {"rpc.client_us.p99", "sim_us"},
    {"rpc.server_us.p50", "sim_us"},
    {"rpc.server_us.p99", "sim_us"},
    {"rpc.fabric_us.p50", "sim_us"},
    {"rpc.fabric_us.p99", "sim_us"},
    {"rpc.spans_dropped", "count"},
    {"kv.replications_per_put", "count"},
    {"kv.misses", "count"},
    {"kv.replicate_us.p99", "sim_us"},
    {"op.self_us.p50", "sim_us"},
    {"op.self_us.p99", "sim_us"},
    {"store.replicated_ops_per_op", "count"},
    {"store.dedup_records_peak", "count"},
    {"store.dedup_pruned_per_op", "count"},
    {"store.cas_conflict_ratio", "ratio"},
    {"store.mailbox_delivered_ratio", "ratio"},
    {"trace.overhead_pct", "%"},
};

std::string arg(int argc, char** argv, const std::string& name, const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == name) return argv[i + 1];
  }
  return fallback;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workload = arg(argc, argv, "--workload", "");
  const std::uint64_t seed = std::strtoull(arg(argc, argv, "--seed", "1").c_str(), nullptr, 10);
  const double seconds = std::strtod(arg(argc, argv, "--seconds", "10").c_str(), nullptr);
  const bool trace = arg(argc, argv, "--trace", "0") == "1";
  const std::string trace_out = arg(argc, argv, "--trace-out", "");
  const std::string dump_det = arg(argc, argv, "--dump-det", "");

  std::function<Rep(std::uint64_t, bool)> run;
  if (workload == "kv_ring") {
    run = perfbench::run_kv_ring;
  } else if (workload == "store_torus") {
    run = perfbench::run_store_torus;
  } else if (workload == "fabric_stream") {
    run = perfbench::run_fabric_stream;
  } else {
    std::fprintf(stderr, "unknown --workload '%s' (kv_ring, store_torus, fabric_stream)\n",
                 workload.c_str());
    return 2;
  }

  constexpr int kMinReps = 3;
  constexpr int kMaxReps = 50;
  std::vector<Rep> reps;
  std::vector<std::string> errors;
  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  while (static_cast<int>(reps.size()) < kMaxReps &&
         (static_cast<int>(reps.size()) < kMinReps || elapsed() < seconds)) {
    // The traced run interleaves untraced and traced reps, so the overhead
    // ratio compares reps that ran under the same host conditions.
    const bool traced_rep = trace && reps.size() % 2 == 1;
    reps.push_back(run(seed, traced_rep));
    const Rep& r = reps.back();
    for (const std::string& e : r.errors) errors.push_back(e);
    if (r.det != reps.front().det) {
      for (const auto& [k, v] : r.det) {
        const auto it = reps.front().det.find(k);
        if (it == reps.front().det.end() || it->second != v) {
          errors.push_back("rep " + std::to_string(reps.size()) + (traced_rep ? " (traced)" : "") +
                           " changed deterministic figure " + k);
        }
      }
    }
    std::fprintf(stderr, "rep %zu%s: setup %.3f s, run %.3f s\n", reps.size(),
                 traced_rep ? " (traced)" : "", r.setup.total(), r.run_s);
  }

  const double rss_mb = peak_rss_mb();  // before the probe's cables exist
  const perfbench::PaperProbe probe = perfbench::run_paper_probe();
  const Rep& first = reps.front();
  std::uint64_t failed = 0;
  for (const Rep& r : reps) failed = std::max(failed, r.failed);
  if (failed != 0) errors.push_back(std::to_string(failed) + " ops failed in a fault-free run");

  if (first.det.at("ht.crc_retries") != 0.0) errors.push_back("CRC retries in a fault-free run");
  // fabric_stream's long streams must hold the plateaus of the Fig. 6 kernel
  // (within 0.1%: only the drain tail differs).
  if (const auto it = first.det.find("strict_mbps"); it != first.det.end()) {
    const auto near = [](double a, double b) { return std::abs(a - b) <= 1e-3 * b; };
    if (!near(first.det.at("stream_mbps"), probe.weak_mbps) ||
        !near(it->second, probe.strict_mbps)) {
      errors.push_back("long streams left the Fig. 6 plateaus");
    }
  }

  // Set-up is the same in traced and untraced reps (tracing starts with the
  // window), so its medians take every rep.
  auto setup_median = [&](const std::function<double(const perfbench::SetupTimes&)>& f) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(f(r.setup));
    return perfbench::median(v);
  };
  // Every rep's window is the same simulated work, slice by slice, and
  // interference from other tenants of the host only ever adds time, so the
  // window's host time is the sum over slices of the fastest rep's slice.
  // Short slices catch the quiet moments between bursts of interference that
  // a whole multi-second window rarely sees.
  auto host_run_s = [&](bool traced_reps) {
    std::vector<double> best;
    for (const Rep& r : reps) {
      if (r.traced != traced_reps) continue;
      if (best.empty()) best = r.run_slices;
      for (std::size_t i = 0; i < best.size() && i < r.run_slices.size(); ++i) {
        best[i] = std::min(best[i], r.run_slices[i]);
      }
    }
    return std::accumulate(best.begin(), best.end(), 0.0);
  };
  const double run_s = host_run_s(false);

  std::map<std::string, double> values;
  if (!trace) {
    values["setup_s"] = setup_median([](const auto& t) { return t.total(); });
    values["run_s"] = run_s;
    values["peak_rss_mb"] = rss_mb;
    for (const char* k : {"events_per_op", "p50_us", "p99_us", "p999_us", "goodput_kops"}) {
      values[k] = first.det.at(k);
    }
    // fabric_stream measures the weak stream itself; the serving workloads
    // report the probe's, so every result line carries the calibration.
    const auto window_stream = first.det.find("stream_mbps");
    values["stream_mbps"] =
        window_stream != first.det.end() ? window_stream->second : probe.weak_mbps;
    values["fidelity_err_pct"] = probe.fidelity_err_pct();
  } else {
    values["setup.plan_s"] = setup_median([](const auto& t) { return t.plan_s; });
    values["setup.boot_s"] = setup_median([](const auto& t) { return t.boot_s; });
    values["setup.services_s"] = setup_median([](const auto& t) { return t.services_s; });
    values["setup.prefill_s"] = setup_median([](const auto& t) { return t.prefill_s; });
    values["sim.host_ns_per_event"] =
        run_s * 1e9 / std::max(1.0, first.window.get("engine.events"));
    values["trace.overhead_pct"] = 100.0 * (host_run_s(true) / run_s - 1.0);
    const Rep* traced = nullptr;
    for (const Rep& r : reps) {
      if (!r.traced) continue;
      if (traced != nullptr && r.span_metrics != traced->span_metrics) {
        errors.push_back("traced reps disagree on span metrics");
      }
      traced = &r;
    }
    for (const auto& [k, v] : first.det) values[k] = v;
    for (const auto& [k, v] : traced->span_metrics) values[k] = v;
    if (values["ht.trace_drops"] != 0.0) errors.push_back("link tracer dropped packets");
    if (!trace_out.empty()) {
      std::ofstream out(trace_out, std::ios::binary | std::ios::trunc);
      out << traced->perfetto_json << "\n";
      if (!out) errors.push_back("could not write " + trace_out);
    }
  }

  if (!dump_det.empty()) {
    // Every deterministic figure of the run, for cross-process comparison.
    std::map<std::string, double> det = first.det;
    for (const Rep& r : reps) {
      if (r.traced) det.insert(r.span_metrics.begin(), r.span_metrics.end());
    }
    std::ofstream out(dump_det, std::ios::trunc);
    out << "{";
    for (auto it = det.begin(); it != det.end(); ++it) {
      out << (it == det.begin() ? "" : ", ") << "\"" << it->first << "\": " << num(it->second);
    }
    out << "}\n";
    if (!out) errors.push_back("could not write " + dump_det);
  }

  const auto& metrics = trace ? kPerLayer : kEndToEnd;
  std::printf("perfbench %s seed %llu: %zu reps (%s), %llu ops per rep, %.0f latency samples\n",
              workload.c_str(), static_cast<unsigned long long>(seed), reps.size(),
              trace ? "untraced + traced" : "untraced",
              static_cast<unsigned long long>(first.attempted), first.det.at("latency_samples"));
  std::printf("paper probe: half-RTT %.0f ns (fig7_latency 48 B row), weak %.0f MB/s and "
              "strict %.0f MB/s (fig6_bandwidth plateaus); paper 227 ns, ~2700, ~2000 MB/s\n",
              probe.half_rtt_ns, probe.weak_mbps, probe.strict_mbps);
  for (const Metric& m : metrics) {
    const auto it = values.find(m.name);
    if (it == values.end()) {
      errors.push_back(std::string("metric not computed: ") + m.name);
      continue;
    }
    std::printf("  %-34s %16.6g %s\n", m.name, it->second, m.unit);
  }
  for (const std::string& e : errors) std::printf("FAIL: %s\n", e.c_str());

  std::string json = "{\"correct\": ";
  json += errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(first.attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool comma = false;
  for (const Metric& m : metrics) {
    const auto it = values.find(m.name);
    if (it == values.end()) continue;
    json += comma ? ", " : "";
    json += "\"" + std::string(m.name) + "\": {\"value\": " + num(it->second) +
            ", \"unit\": \"" + m.unit + "\"}";
    comma = true;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return errors.empty() ? 0 : 1;
}
