#pragma once

// Shared plumbing of the end-to-end benchmark: run configuration, the
// outcome every workload returns, order statistics, repeated set-up
// timing, optional registry reads and the trace summary (span coverage
// and per-layer self time).

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hpcgpt/obs/metrics.hpp"
#include "hpcgpt/obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// What one invocation asks for: the workload's seed, how long its timed
/// phases may run in total, and whether this is the traced run.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
};

/// Operation counts of one phase (sent, succeeded, failed).
struct PhaseCount {
  std::string name;
  std::size_t sent = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
};

/// Everything a workload run reports. `layers` maps per-layer metric
/// names to values; nullopt marks a metric whose source (a registry
/// counter, a program span) is absent from this build of the program.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Failed output checks; any entry makes the run incorrect.
  std::vector<std::string> problems;
  /// Non-empty when the run's measurement itself is invalid (an open-loop
  /// generator that fell behind its schedule): such a run is not scored.
  std::string invalid;
  std::vector<PhaseCount> phases;
  std::map<std::string, double> e2e;
  std::map<std::string, std::optional<double>> layers;
  /// Run facts for the fingerprint line (arrival rate, options, ...).
  std::vector<std::pair<std::string, std::string>> facts;

  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  void phase(PhaseCount count) {
    attempted += count.sent;
    failed += count.failed;
    phases.push_back(std::move(count));
  }
};

double seconds_between(Clock::time_point a, Clock::time_point b);
/// Seconds since the process started (static initialisation).
double seconds_since_start();

/// Nearest-rank quantile (q in [0,1]) of unsorted samples; 0 when empty.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// A shared host switches between a quiet and a loaded state that slows
/// everything in the process by up to a third, in spells of seconds to
/// minutes. A run therefore splits its operations into consecutive windows
/// and reports the median and the throughput of its least-disturbed tenth:
/// the lower decile over the windows of the median latency, the upper
/// decile of a throughput. A regression slows every window, so it still
/// shows in full. The tail is never windowed: it is pooled over the whole
/// timed phase, so a stall that hits only some windows shows in it.
inline constexpr double kSteadyShare = 0.1;

/// The lower decile, over `windows` consecutive, equal groups of `values`
/// (in completion order; the remainder joins the last group), of each
/// group's q-quantile.
double windowed_quantile(const std::vector<double>& values,
                         std::size_t windows, double q);

/// The upper decile, over `windows` consecutive groups of operations, of
/// the group's work per second: Σ work / (its last completion − the
/// previous group's). `ends` are completion times in seconds since the
/// phase started.
double windowed_rate(const std::vector<double>& ends,
                     const std::vector<double>& work, std::size_t windows);

/// How a workload reports its latencies: the fixed tail percentile (pooled
/// over the whole timed phase), the SLO limit, and the windows the median
/// is taken over.
struct LatencySpec {
  double tail_q = 0.95;
  double slo_seconds = 0.0;
  std::size_t p50_windows = 8;
};

/// Fills latency_p50_s, latency_tail_s and slo_met_share from
/// per-operation latencies in completion order (failed operations carry
/// +inf, so they count as SLO misses), and records the tail definition and
/// how many samples lie beyond it.
void latency_metrics(Outcome& out, const std::vector<double>& latencies,
                     const LatencySpec& spec);

/// Peak resident set size of this process in MiB.
double peak_rss_mib();

/// Builds the workload's set-up `1 + reps` times and returns the last one.
/// The first build, timed from process start, also pays for the process's
/// one-off initialisation; it is recorded as a fact only. setup_s is the
/// lower decile of the `reps` fresh set-ups after it: one set-up takes
/// between a tenth of a second and two seconds, so host jitter moves a
/// single timing by up to a third, and the least-disturbed one repeats.
template <typename Make>
auto repeated_setup(Outcome& out, int reps, Make make) {
  auto last = make();
  out.facts.emplace_back("setup_from_start_s",
                         std::to_string(seconds_since_start()));
  std::vector<double> durations;
  for (int r = 0; r < reps; ++r) {
    last = nullptr;  // release the previous set-up before building anew
    const Clock::time_point t0 = Clock::now();
    last = make();
    durations.push_back(seconds_between(t0, Clock::now()));
  }
  if (!durations.empty()) {
    out.e2e["setup_s"] = quantile(durations, kSteadyShare);
  }
  std::string all;
  for (double d : durations) all += std::to_string(d) + " ";
  out.facts.emplace_back("setup_runs_s", all);
  return last;
}

/// A registry metric read that tolerates its absence: the benchmark must
/// keep working when a counter is renamed or removed from the program.
struct RegistryView {
  explicit RegistryView(const hpcgpt::obs::MetricsRegistry& registry);
  std::optional<double> counter(std::string_view name) const;
  std::optional<double> gauge_max(std::string_view name) const;

 private:
  hpcgpt::json::Object snapshot_;
};

/// `after - before` when both reads exist.
std::optional<double> delta(const std::optional<double>& after,
                            const std::optional<double>& before);
/// `num / den` when both exist and den > 0.
std::optional<double> ratio(const std::optional<double>& num,
                            const std::optional<double>& den);

/// Records a span that does not match a C++ scope (an open-loop request
/// from its due time to its completion) into the global trace sink.
void record_span(const char* name, double start_seconds,
                 double duration_seconds, std::uint64_t trace_id);

/// Spans recorded inside one timed window, summarised.
struct TraceSummary {
  /// Of the time at least one operation (a parentless `bench.*` span) was
  /// in flight, the share the program's own spans cover.
  double coverage = 0.0;
  /// Self time (span duration minus the part its children cover) summed
  /// per layer, operation roots excluded; the layer is the span name's
  /// first component, and the benchmark's `bench.<layer>.<call>` wrappers
  /// around public calls count for <layer>.
  std::map<std::string, double> self_seconds;
  std::uint64_t dropped = 0;
  std::size_t events = 0;
  /// Durations of every span, by name.
  std::map<std::string, std::vector<double>> durations;
};

/// Arms the global sink with room for `capacity` events (cleared).
void arm_trace(std::size_t capacity);
/// Disarms the sink and summarises the spans that started in
/// [window_start, window_end) (sink-epoch seconds).
TraceSummary collect_trace(double window_start, double window_end);

/// Adds the trace-derived per-layer metrics shared by every workload:
/// span coverage, dropped events, per-layer self-time shares and the
/// tracing overhead (traced minus untraced median latency).
void trace_metrics(Outcome& out, const TraceSummary& trace,
                   double untraced_p50, double traced_p50);

/// p50 of a named span's durations, or nullopt when the program recorded
/// no such span.
std::optional<double> span_p50(const TraceSummary& trace,
                               const std::string& name);

}  // namespace perfbench
