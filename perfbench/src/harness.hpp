#pragma once

// Shared pieces of the end-to-end benchmark: timing, quantiles, the
// in-memory span recorder, the output-correctness gate and the per-run
// report. Everything here is the benchmark's own code; the program under
// test is only ever called through its public headers.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/grid2d.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
/// Split `values` (in arrival order) into `windows` consecutive slices and
/// return the median of the slices' q-quantiles. A transient host stall then
/// moves only the slices it falls in.
double windowed_quantile(const std::vector<double>& values, double q, int windows);

/// Slices behind every reported wall-clock `<workload>.p50_ms`: on the
/// shared 4-core host, CPU steal bursts of a few seconds otherwise moved
/// whole-run medians.
inline constexpr int kLatencyWindows = 5;
double mean(const std::vector<double>& values);

/// Settings shared by every workload, taken from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;             ///< tiny inputs for the self-tests
  std::string model_path;         ///< IRFS checkpoint of the shared model
  std::string work_dir;           ///< scratch space inside the checkout
  std::string inject;             ///< self-test fault: "", corrupt-map, gen-stall
};

/// One recorded span. Spans of one operation share `request`; `parent` is
/// the index of the enclosing span in the recorder, or -1 for a root.
struct Span {
  std::string name;
  double start_s = 0.0;  ///< seconds since the recorder's epoch
  double end_s = 0.0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// Keeps spans in memory for the whole run; written out once at the end.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  int begin(const std::string& name, int parent, std::uint64_t request);
  void end(int index);
  /// Record a finished interval (e.g. a stage the engine timed itself).
  int add(const std::string& name, Clock::time_point start, Clock::time_point end,
          int parent, std::uint64_t request);

  double duration_ms(int index) const;

  /// Median duration (ms) of every span with this name; 0 when none.
  double median_ms(const std::string& name) const;

  /// Per-root share (%) of the root's duration its direct children leave
  /// unattributed (parent minus children), for roots named `root`.
  std::vector<double> unattributed_pct(const std::string& root) const;

  void write_json(const std::string& path) const;

 private:
  /// Summed duration (s) of each span's direct children.
  std::vector<double> child_seconds() const;

  double since_epoch(Clock::time_point t) const { return seconds_between(epoch_, t); }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span on a Tracer; a null tracer makes it a no-op, so the traced and
/// untraced paths share one body of code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int parent, std::uint64_t request)
      : tracer_(tracer),
        index_(tracer ? tracer->begin(name, parent, request) : -1) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void close() {
    if (tracer_ && index_ >= 0 && !closed_) tracer_->end(index_);
    closed_ = true;
  }
  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
  bool closed_ = false;
};

/// Operation outcomes by phase. A phase is "setup", "warmup" or "measure".
class Tally {
 public:
  void attempt(const std::string& phase) { ++attempted_[phase]; }
  void fail(const std::string& phase, const std::string& reason);
  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  /// {"phase": {"attempted": n, "failed": n, "reasons": {...}}}
  std::string json() const;
  /// First failure reason seen, for the error message.
  const std::string& first_reason() const { return first_reason_; }

 private:
  std::map<std::string, std::uint64_t> attempted_;
  std::map<std::string, std::uint64_t> failed_;
  std::map<std::string, std::map<std::string, std::uint64_t>> reasons_;
  std::string first_reason_;
};

/// The output-correctness gate: a finite map of the expected shape whose
/// MAE against the golden map is within `mae_bound_volts`.
struct MapCheck {
  bool ok = false;
  std::string reason;  ///< empty when ok
  double mae = 0.0;    ///< volts
  double mirde = 0.0;  ///< |max(pred) - max(golden)|, volts
};
MapCheck check_map(const irf::GridF& map, const irf::GridF& golden, double mae_bound_volts);

/// Maximum MAE (volts) any served or analysed map may have against golden.
/// The generator scales every design to a 6 mV worst-case drop, so a map
/// this far off on average is not an IR-drop map of that design.
inline constexpr double kMaeBoundVolts = 1.5e-3;

/// Overwrite a map so the gate must reject it (self-test fault injection).
void corrupt_map(irf::GridF& map);

/// A metric as printed: value plus unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What a workload hands back to main().
struct WorkloadResult {
  Tally tally;
  Metrics end_to_end;  ///< printed with --trace 0
  Metrics per_layer;   ///< printed with --trace 1
  std::map<std::string, double> notes;  ///< sample counts etc., report only
};

/// CPU time this process has used so far, summed over its threads
/// (CLOCK_PROCESS_CPUTIME_ID). Time other processes hold the CPU is not in
/// it, nor, on a kernel with paravirtual steal accounting, time the
/// hypervisor steals from the guest. On a shared host it therefore measures
/// the program's own work where wall-clock time also measures the
/// neighbours: on a 4-vCPU guest, the quartile spread of ten wall-clock
/// medians of the same code reached 90% of their median.
double process_cpu_seconds();

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// JSON string literal with escapes.
std::string json_string(const std::string& s);
/// Number with full precision (never NaN/Inf: those print as null).
std::string json_number(double v);

}  // namespace perfbench
