#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace perfbench {

namespace {

Clock::time_point g_process_start = Clock::now();

using Interval = std::pair<double, double>;

/// The union of [start, end) intervals clipped to [lo, hi), as sorted
/// disjoint intervals.
std::vector<Interval> merged(std::vector<Interval> intervals, double lo,
                             double hi) {
  std::sort(intervals.begin(), intervals.end());
  std::vector<Interval> out;
  for (auto [start, end] : intervals) {
    start = std::max(start, lo);
    end = std::min(end, hi);
    if (end <= start) continue;
    if (!out.empty() && start <= out.back().second) {
      out.back().second = std::max(out.back().second, end);
    } else {
      out.emplace_back(start, end);
    }
  }
  return out;
}

double length(const std::vector<Interval>& disjoint) {
  double total = 0.0;
  for (const auto& [start, end] : disjoint) total += end - start;
  return total;
}

/// `bench.<layer>.<call>` wrappers belong to <layer>; `bench.<op>` roots
/// are the benchmark's own time; program spans are named `<layer>.*`.
std::string layer_of(const std::string& name) {
  const std::size_t first = name.find('.');
  const std::string head = name.substr(0, first);
  if (head != "bench" || first == std::string::npos) return head;
  const std::size_t second = name.find('.', first + 1);
  return second == std::string::npos
             ? head
             : name.substr(first + 1, second - first - 1);
}

const std::optional<double> kAbsent;

}  // namespace

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double seconds_since_start() {
  return seconds_between(g_process_start, Clock::now());
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto n = samples.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double windowed_quantile(const std::vector<double>& values,
                         std::size_t windows, double q) {
  windows = std::clamp<std::size_t>(windows, 1, std::max<std::size_t>(
                                                    values.size(), 1));
  const std::size_t per = values.size() / windows;
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = values.begin() + static_cast<std::ptrdiff_t>(w * per);
    const auto last = w + 1 == windows
                          ? values.end()
                          : first + static_cast<std::ptrdiff_t>(per);
    per_window.push_back(quantile({first, last}, q));
  }
  return quantile(per_window, kSteadyShare);
}

double windowed_rate(const std::vector<double>& ends,
                     const std::vector<double>& work, std::size_t windows) {
  windows = std::clamp<std::size_t>(windows, 1, std::max<std::size_t>(
                                                    ends.size(), 1));
  const std::size_t per = ends.size() / windows;
  std::vector<double> rates;
  double since = 0.0;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t last = w + 1 == windows ? ends.size() : (w + 1) * per;
    double done = 0.0;
    for (std::size_t i = w * per; i < last; ++i) done += work[i];
    rates.push_back(done / (ends[last - 1] - since));
    since = ends[last - 1];
  }
  return quantile(rates, 1.0 - kSteadyShare);
}

void latency_metrics(Outcome& out, const std::vector<double>& latencies,
                     const LatencySpec& spec) {
  std::size_t met = 0;
  for (double l : latencies) met += l <= spec.slo_seconds ? 1 : 0;
  out.e2e["latency_p50_s"] =
      windowed_quantile(latencies, spec.p50_windows, 0.5);
  out.e2e["latency_tail_s"] = quantile(latencies, spec.tail_q);
  out.e2e["slo_met_share"] =
      latencies.empty() ? 0.0
                        : static_cast<double>(met) /
                              static_cast<double>(latencies.size());
  const std::size_t n = latencies.size();
  const std::size_t beyond =
      n - static_cast<std::size_t>(
              std::ceil(spec.tail_q * static_cast<double>(n)));
  out.facts.emplace_back("latency_samples", std::to_string(n));
  out.facts.emplace_back(
      "tail", "p" + std::to_string(std::lround(spec.tail_q * 100.0)) +
                  " of all " + std::to_string(n) + " operations (" +
                  std::to_string(beyond) + " beyond)");
  out.facts.emplace_back("slo_seconds", std::to_string(spec.slo_seconds));
  if (beyond < 10) {
    out.facts.emplace_back("warning",
                           "fewer than ten samples beyond the tail percentile");
  }
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

RegistryView::RegistryView(const hpcgpt::obs::MetricsRegistry& registry)
    : snapshot_(registry.snapshot()) {}

std::optional<double> RegistryView::counter(std::string_view name) const {
  const auto section = snapshot_.find("counters");
  if (section == snapshot_.end()) return kAbsent;
  const hpcgpt::json::Value* v = section->second.find(name);
  if (v == nullptr || !v->is_number()) return kAbsent;
  return v->as_number();
}

std::optional<double> RegistryView::gauge_max(std::string_view name) const {
  const auto section = snapshot_.find("gauges");
  if (section == snapshot_.end()) return kAbsent;
  const hpcgpt::json::Value* v = section->second.find(name);
  if (v == nullptr || !v->is_object()) return kAbsent;
  const hpcgpt::json::Value* max = v->find("max");
  if (max == nullptr || !max->is_number()) return kAbsent;
  return max->as_number();
}

std::optional<double> delta(const std::optional<double>& after,
                            const std::optional<double>& before) {
  if (!after || !before) return kAbsent;
  return *after - *before;
}

std::optional<double> ratio(const std::optional<double>& num,
                            const std::optional<double>& den) {
  if (!num || !den || *den <= 0.0) return kAbsent;
  return *num / *den;
}

void record_span(const char* name, double start_seconds,
                 double duration_seconds, std::uint64_t trace_id) {
  hpcgpt::obs::TraceEvent event;
  event.name = name;
  event.start_seconds = start_seconds;
  event.duration_seconds = duration_seconds;
  event.trace_id = trace_id;
  event.span_id = hpcgpt::obs::next_span_id();
  hpcgpt::obs::TraceSink::global().record(std::move(event));
}

void arm_trace(std::size_t capacity) {
  hpcgpt::obs::TraceSink& sink = hpcgpt::obs::TraceSink::global();
  sink.set_capacity(capacity);
  sink.clear();
  sink.enable(true);
}

TraceSummary collect_trace(double window_start, double window_end) {
  hpcgpt::obs::TraceSink& sink = hpcgpt::obs::TraceSink::global();
  sink.enable(false);
  TraceSummary summary;
  summary.dropped = sink.dropped_count();

  std::vector<hpcgpt::obs::TraceEvent> events;
  for (hpcgpt::obs::TraceEvent& e : sink.events()) {
    if (e.start_seconds >= window_start && e.start_seconds < window_end) {
      events.push_back(std::move(e));
    }
  }
  summary.events = events.size();

  // Operation roots are the benchmark's parentless `bench.*` spans; the
  // program's own spans are everything not named `bench.*`.
  const auto is_bench = [](const hpcgpt::obs::TraceEvent& e) {
    return e.name.rfind("bench.", 0) == 0;
  };
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].span_id != 0) by_id[events[i].span_id] = i;
  }
  std::vector<std::vector<Interval>> children(events.size());
  std::vector<Interval> ops, program;
  for (const hpcgpt::obs::TraceEvent& e : events) {
    const double end = e.start_seconds + e.duration_seconds;
    summary.durations[e.name].push_back(e.duration_seconds);
    if (is_bench(e) && e.parent_id == 0) {
      ops.emplace_back(e.start_seconds, end);
    } else if (!is_bench(e)) {
      program.emplace_back(e.start_seconds, end);
    }
    const auto parent = by_id.find(e.parent_id);
    if (e.parent_id != 0 && parent != by_id.end()) {
      children[parent->second].emplace_back(e.start_seconds, end);
    }
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const hpcgpt::obs::TraceEvent& e = events[i];
    if (is_bench(e) && e.parent_id == 0) continue;
    const double end = e.start_seconds + e.duration_seconds;
    const double covered =
        length(merged(std::move(children[i]), e.start_seconds, end));
    summary.self_seconds[layer_of(e.name)] += e.duration_seconds - covered;
  }
  const std::vector<Interval> in_flight =
      merged(std::move(ops), window_start, window_end);
  const std::vector<Interval> explained =
      merged(std::move(program), window_start, window_end);
  double both = 0.0;
  auto op = in_flight.begin();
  for (const auto& [start, end] : explained) {
    while (op != in_flight.end() && op->second <= start) ++op;
    for (auto o = op; o != in_flight.end() && o->first < end; ++o) {
      both += std::min(end, o->second) - std::max(start, o->first);
    }
  }
  const double in_flight_seconds = length(in_flight);
  summary.coverage = in_flight_seconds > 0.0 ? both / in_flight_seconds : 0.0;
  return summary;
}

void trace_metrics(Outcome& out, const TraceSummary& trace,
                   double untraced_p50, double traced_p50) {
  out.layers["trace.coverage_share"] = trace.coverage;
  out.layers["trace.dropped_events"] = static_cast<double>(trace.dropped);
  out.layers["trace.overhead_s"] = traced_p50 - untraced_p50;
  out.layers["trace.overhead_share"] =
      untraced_p50 > 0.0 ? (traced_p50 - untraced_p50) / untraced_p50 : 0.0;
  double total = 0.0;
  for (const auto& [layer, seconds] : trace.self_seconds) total += seconds;
  for (const char* layer :
       {"core", "retrieval", "nn", "tensor", "serve", "analysis"}) {
    const auto it = trace.self_seconds.find(layer);
    const double self = it == trace.self_seconds.end() ? 0.0 : it->second;
    out.layers[std::string("trace.self_share.") + layer] =
        total > 0.0 ? self / total : 0.0;
  }
  out.facts.emplace_back("trace_events", std::to_string(trace.events));
  out.check(trace.dropped == 0, "trace sink dropped events");
}

std::optional<double> span_p50(const TraceSummary& trace,
                               const std::string& name) {
  const auto it = trace.durations.find(name);
  if (it == trace.durations.end() || it->second.empty()) return kAbsent;
  return median(it->second);
}

}  // namespace perfbench
