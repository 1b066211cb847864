#include "obs/export.hpp"

#include <algorithm>
#include <functional>
#include <iomanip>
#include <map>
#include <sstream>

#include "obs/health.hpp"
#include "obs/profile.hpp"
#include "util/bytes.hpp"

namespace psf::obs {

namespace {

std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '.' || c == '-') c = '_';
  }
  return out;
}

std::string hex_id(std::uint64_t id) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << id;
  return os.str();
}

std::string quoted(const std::string& s) {
  return '"' + util::json_escape(s) + '"';
}

}  // namespace

std::string prometheus_escape_label(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string to_prometheus_text(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  for (const auto& e : snapshot.entries) {
    const std::string name = prometheus_name(e.name);
    switch (e.kind) {
      case MetricsSnapshot::Entry::Kind::kCounter:
        os << "# TYPE " << name << " counter\n";
        os << name << " " << e.value << "\n";
        break;
      case MetricsSnapshot::Entry::Kind::kGauge:
        os << "# TYPE " << name << " gauge\n";
        os << name << " " << e.value << "\n";
        break;
      case MetricsSnapshot::Entry::Kind::kHistogram: {
        const auto& h = e.histogram;
        os << "# TYPE " << name << " histogram\n";
        // OpenMetrics exemplar suffix: `... # {trace_id="...",span_id="..."}
        // value` after a bucket line links that bucket's tail to a trace.
        const auto exemplar_suffix = [&](std::size_t bucket) -> std::string {
          if (bucket >= h.exemplars.size() || !h.exemplars[bucket].valid) {
            return "";
          }
          const auto& ex = h.exemplars[bucket];
          std::ostringstream suffix;
          // hex ids never need escaping today, but the spec escape keeps
          // the emitter honest if the label values ever grow richer.
          suffix << " # {trace_id=\""
                 << prometheus_escape_label(hex_id(ex.trace_id))
                 << "\",span_id=\""
                 << prometheus_escape_label(hex_id(ex.span_id)) << "\"} "
                 << ex.value;
          return suffix.str();
        };
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.bounds.size(); ++i) {
          cumulative += h.bucket_counts[i];
          os << name << "_bucket{le=\"" << h.bounds[i] << "\"} " << cumulative
             << exemplar_suffix(i) << "\n";
        }
        os << name << "_bucket{le=\"+Inf\"} " << h.count
           << exemplar_suffix(h.bounds.size()) << "\n";
        os << name << "_sum " << h.sum << "\n";
        os << name << "_count " << h.count << "\n";
        for (double p : {50.0, 95.0, 99.0}) {
          os << name << "_p" << static_cast<int>(p) << " " << h.percentile(p)
             << "\n";
        }
        break;
      }
    }
  }
  return os.str();
}

std::string status_json() {
  const HealthReport health = HealthRegistry::instance().report();
  const MetricsSnapshot metrics = Registry::instance().snapshot();
  const profile::Report profiled = profile::report();
  std::ostringstream os;
  os << "{\n  \"schema\": \"status-v1\",\n  \"health\": {\"status\": \""
     << health_level_name(health.overall) << "\", \"checks\": [\n";
  for (std::size_t i = 0; i < health.entries.size(); ++i) {
    const HealthReport::Entry& entry = health.entries[i];
    os << "    {\"name\": " << quoted(entry.name) << ", \"status\": \""
       << health_level_name(entry.result.level)
       << "\", \"reason\": " << quoted(entry.result.reason) << "}"
       << (i + 1 < health.entries.size() ? ",\n" : "\n");
  }
  os << "  ]},\n  \"metrics\": [\n";
  for (std::size_t i = 0; i < metrics.entries.size(); ++i) {
    const auto& e = metrics.entries[i];
    os << "    {\"name\": " << quoted(e.name);
    switch (e.kind) {
      case MetricsSnapshot::Entry::Kind::kCounter:
        os << ", \"type\": \"counter\", \"value\": " << e.value << "}";
        break;
      case MetricsSnapshot::Entry::Kind::kGauge:
        os << ", \"type\": \"gauge\", \"value\": " << e.value << "}";
        break;
      case MetricsSnapshot::Entry::Kind::kHistogram: {
        const auto& h = e.histogram;
        os << ", \"type\": \"histogram\", \"count\": " << h.count
           << ", \"sum\": " << h.sum << ", \"min\": " << h.min
           << ", \"max\": " << h.max << ", \"p50\": " << h.percentile(50)
           << ", \"p95\": " << h.percentile(95)
           << ", \"p99\": " << h.percentile(99) << ", \"buckets\": [";
        for (std::size_t b = 0; b < h.bounds.size(); ++b) {
          os << "{\"le\": " << h.bounds[b] << ", \"count\": "
             << h.bucket_counts[b] << "}, ";
        }
        os << "{\"le\": \"+Inf\", \"count\": " << h.bucket_counts.back()
           << "}], \"tail_exemplar\": ";
        const Histogram::Exemplar tail = h.tail_exemplar();
        if (tail.valid) {
          os << "{\"trace_id\": \"" << hex_id(tail.trace_id)
             << "\", \"value\": " << tail.value << "}}";
        } else {
          os << "null}";
        }
        break;
      }
    }
    os << (i + 1 < metrics.entries.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"profile\": {\"running\": "
     << (profiled.running ? "true" : "false")
     << ", \"interval_us\": " << profiled.interval_us << ", \"threads\": [";
  for (std::size_t i = 0; i < profiled.threads.size(); ++i) {
    const profile::ThreadStatus& t = profiled.threads[i];
    os << (i == 0 ? "" : ", ") << "{\"name\": " << quoted(t.name)
       << ", \"samples\": " << t.samples << ", \"truncated\": " << t.truncated
       << ", \"dropped\": " << t.dropped << "}";
  }
  os << "]}\n}\n";
  return os.str();
}

std::string spans_to_json(const std::vector<SpanRecord>& spans) {
  std::ostringstream os;
  os << "{\n  \"context\": {\n"
     << "    \"exporter\": \"psf::obs\",\n"
     << "    \"schema\": \"spans-v1\",\n"
     << "    \"span_count\": " << spans.size() << "\n"
     << "  },\n  \"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    os << "    {\"trace_id\": \"" << hex_id(s.trace_id) << "\", \"span_id\": \""
       << hex_id(s.span_id) << "\", \"parent_id\": \"" << hex_id(s.parent_id)
       << "\", \"name\": " << quoted(s.name)
       << ", \"start_ns\": " << s.start_ns
       << ", \"duration_ns\": " << s.duration_ns
       << ", \"error\": " << (s.error ? "true" : "false") << "}";
    if (i + 1 < spans.size()) os << ",";
    os << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

std::string format_trace(const std::vector<SpanRecord>& spans,
                         TraceId trace_id) {
  std::vector<const SpanRecord*> mine;
  for (const auto& s : spans) {
    if (s.trace_id == trace_id) mine.push_back(&s);
  }
  if (mine.empty()) return "";
  std::stable_sort(mine.begin(), mine.end(),
                   [](const SpanRecord* a, const SpanRecord* b) {
                     return a->start_ns < b->start_ns;
                   });
  std::map<SpanId, std::vector<const SpanRecord*>> children;
  std::vector<const SpanRecord*> roots;
  for (const SpanRecord* s : mine) {
    // A parent evicted from the ring (or living on another process) makes
    // the span a root for display purposes.
    bool parent_present = false;
    for (const SpanRecord* p : mine) {
      if (p->span_id == s->parent_id) {
        parent_present = true;
        break;
      }
    }
    if (s->parent_id == 0 || !parent_present) {
      roots.push_back(s);
    } else {
      children[s->parent_id].push_back(s);
    }
  }

  std::ostringstream os;
  os << "trace " << hex_id(trace_id) << " (" << mine.size() << " spans)\n";
  std::function<void(const SpanRecord*, int)> emit =
      [&](const SpanRecord* s, int depth) {
        for (int i = 0; i < depth; ++i) os << "  ";
        os << "- " << s->name << "  " << s->duration_ns / 1000 << " us\n";
        auto it = children.find(s->span_id);
        if (it == children.end()) return;
        for (const SpanRecord* c : it->second) emit(c, depth + 1);
      };
  for (const SpanRecord* r : roots) emit(r, 1);
  return os.str();
}

std::string journal_to_json(const std::vector<journal::Event>& events) {
  std::ostringstream os;
  os << "{\n  \"context\": {\n"
     << "    \"exporter\": \"psf::obs\",\n"
     << "    \"schema\": \"journal-v1\",\n"
     << "    \"event_count\": " << events.size() << "\n"
     << "  },\n  \"events\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const journal::Event& e = events[i];
    os << "    {\"t_ns\": " << e.t_ns << ", \"thread\": " << e.thread
       << ", \"subsystem\": " << quoted(journal::subsystem_name(e.subsystem))
       << ", \"event\": "
       << quoted(journal::event_name(e.subsystem, e.code)) << ", \"args\": [";
    for (int a = 0; a < 4; ++a) {
      if (a != 0) os << ", ";
      os << "\"" << hex_id(e.args[a]) << "\"";
    }
    os << "], \"trace_id\": \"" << hex_id(e.trace_id) << "\", \"span_id\": \""
       << hex_id(e.span_id) << "\"}";
    if (i + 1 < events.size()) os << ",";
    os << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

std::string dump_prometheus() {
  return to_prometheus_text(Registry::instance().snapshot());
}

}  // namespace psf::obs
