#include "telemetry/chrome_trace.hpp"

#include <cstdio>

#include "telemetry/json.hpp"

namespace tcc::telemetry {

namespace {

/// Picoseconds -> microseconds with sub-us precision kept as a fraction.
std::string ps_to_us(std::int64_t ps) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6f", static_cast<double>(ps) / 1e6);
  return buf;
}

}  // namespace

std::pair<std::string, std::string> ChromeTraceWriter::arg_str(std::string k,
                                                               const std::string& v) {
  std::string quoted = "\"";
  quoted.append(json_escape(v)).push_back('"');
  return {std::move(k), std::move(quoted)};
}

std::pair<std::string, std::string> ChromeTraceWriter::arg_num(std::string k, double v) {
  return {std::move(k), json_number(v)};
}

std::pair<std::string, std::string> ChromeTraceWriter::arg_num(std::string k,
                                                               std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return {std::move(k), buf};
}

void ChromeTraceWriter::push_event(char ph, int pid, int tid, std::int64_t ts_ps,
                                   const std::string& name, const std::string& cat,
                                   const Args& args, std::int64_t dur_ps,
                                   const char* scope) {
  std::string e = "{";
  e += "\"name\":\"" + json_escape(name) + "\"";
  if (!cat.empty()) e += ",\"cat\":\"" + json_escape(cat) + "\"";
  e += std::string(",\"ph\":\"") + ph + "\"";
  e += ",\"pid\":" + std::to_string(pid);
  e += ",\"tid\":" + std::to_string(tid);
  e += ",\"ts\":" + ps_to_us(ts_ps);
  if (dur_ps >= 0) e += ",\"dur\":" + ps_to_us(dur_ps);
  if (scope != nullptr) e += std::string(",\"s\":\"") + scope + "\"";
  if (!args.empty()) {
    e += ",\"args\":{";
    bool first = true;
    for (const auto& [k, v] : args) {
      if (!first) e += ',';
      first = false;
      e.append("\"").append(json_escape(k)).append("\":").append(v);
    }
    e += "}";
  }
  e += "}";
  events_.push_back(std::move(e));
}

void ChromeTraceWriter::set_process_name(int pid, const std::string& name) {
  push_event('M', pid, 0, 0, "process_name", "", {arg_str("name", name)});
}

void ChromeTraceWriter::set_thread_name(int pid, int tid, const std::string& name) {
  push_event('M', pid, tid, 0, "thread_name", "", {arg_str("name", name)});
}

void ChromeTraceWriter::complete(int pid, int tid, std::int64_t ts_ps, std::int64_t dur_ps,
                                 const std::string& name, const std::string& cat,
                                 Args args) {
  if (dur_ps < 0) dur_ps = 0;
  push_event('X', pid, tid, ts_ps, name, cat, args, dur_ps);
}

void ChromeTraceWriter::begin(int pid, int tid, std::int64_t ts_ps, const std::string& name,
                              const std::string& cat, Args args) {
  push_event('B', pid, tid, ts_ps, name, cat, args);
}

void ChromeTraceWriter::end(int pid, int tid, std::int64_t ts_ps) {
  push_event('E', pid, tid, ts_ps, "", "", {});
}

void ChromeTraceWriter::instant(int pid, int tid, std::int64_t ts_ps,
                                const std::string& name, const std::string& cat,
                                Args args) {
  push_event('I', pid, tid, ts_ps, name, cat, args, -1, "p");
}

void ChromeTraceWriter::counter(int pid, std::int64_t ts_ps, const std::string& name,
                                const std::string& series, double value) {
  push_event('C', pid, 0, ts_ps, name, "", {arg_num(series, value)});
}

std::string ChromeTraceWriter::json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (i > 0) out += ",\n ";
    out += events_[i];
  }
  out += "]";
  return out;
}

Status ChromeTraceWriter::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return make_error(ErrorCode::kNotFound, "cannot open " + path + " for writing");
  }
  const std::string doc = json();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  if (!ok) return make_error(ErrorCode::kResourceExhausted, "short write to " + path);
  return {};
}

}  // namespace tcc::telemetry
