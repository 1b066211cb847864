// Exporters for the metrics registry and span collector.
//
//  - to_prometheus_text: the text exposition format (dots in metric names
//    become underscores; histograms emit cumulative _bucket/_sum/_count
//    series plus convenience p50/p95/p99 gauges).
//  - status_json: the one status-v1 document — health rows, every metric
//    with each histogram's tail exemplar, and the profiler's counters.
//  - spans_to_json / format_trace: the span ring buffer as JSON, and a
//    human-readable tree of one trace for terminal output.
#pragma once

#include <string>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace psf::obs {

/// Escape a label value for the Prometheus/OpenMetrics text exposition
/// format: backslash, double-quote, and line-feed become \\, \", and \n
/// (the only three escapes the spec defines — every other byte passes
/// through verbatim). Applied to every quoted label and exemplar-label
/// value the exporter emits; public so tests can round-trip it.
std::string prometheus_escape_label(const std::string& value);

std::string to_prometheus_text(const MetricsSnapshot& snapshot);

/// The node's `status-v1` document, read from the process-wide health
/// registry, metrics registry and profiler:
/// `{"schema": "status-v1",
///   "health": {"status": "ok|degraded|failing",
///              "checks": [{"name", "status", "reason"}, ...]},
///   "metrics": [{"name", "type", ...}, ...],
///   "profile": {"running", "interval_us",
///               "threads": [{"name", "samples", "truncated", "dropped"}]}}`
/// Histogram entries carry count/sum/min/max/p50/p95/p99, their buckets and
/// `"tail_exemplar": {"trace_id": "<hex>", "value": v}` (null when none was
/// captured), so a slow tail resolves to its trace via spans_for_trace.
std::string status_json();

/// `{"context": {...}, "spans": [{"trace_id": "...", ...}, ...]}`
/// IDs are rendered as fixed-width hex strings (JSON numbers cannot carry
/// 64-bit IDs losslessly).
std::string spans_to_json(const std::vector<SpanRecord>& spans);

/// Indented tree of the spans belonging to `trace_id`, children under their
/// parents, with durations. Returns "" when the trace has no spans.
std::string format_trace(const std::vector<SpanRecord>& spans,
                         TraceId trace_id);

/// `{"context": {...}, "events": [{"subsystem": ..., "event": ..., ...}, ...]}`
/// Args and IDs are fixed-width hex strings, same convention as spans_to_json.
std::string journal_to_json(const std::vector<journal::Event>& events);

/// Convenience snapshot-and-export of the process-wide registry.
std::string dump_prometheus();

}  // namespace psf::obs
