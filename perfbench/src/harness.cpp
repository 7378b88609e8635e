#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(i, values.size() - 1)];
}

double median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double windowed_quantile(const std::vector<double>& values, double q, int windows) {
  const std::size_t n = values.size();
  if (windows < 1 || n < static_cast<std::size_t>(windows)) return quantile(values, q);
  std::vector<double> per_window;
  for (int w = 0; w < windows; ++w) {
    const auto lo = values.begin() + static_cast<std::ptrdiff_t>(n * w / windows);
    const auto hi = values.begin() + static_cast<std::ptrdiff_t>(n * (w + 1) / windows);
    per_window.push_back(quantile(std::vector<double>(lo, hi), q));
  }
  return median(per_window);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

int Tracer::begin(const std::string& name, int parent, std::uint64_t request) {
  const double now = since_epoch(Clock::now());
  spans_.push_back(Span{name, now, now, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int index) {
  spans_.at(static_cast<std::size_t>(index)).end_s = since_epoch(Clock::now());
}

int Tracer::add(const std::string& name, Clock::time_point start, Clock::time_point end,
                int parent, std::uint64_t request) {
  spans_.push_back(Span{name, since_epoch(start), since_epoch(end), parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::duration_ms(int index) const {
  const Span& s = spans_.at(static_cast<std::size_t>(index));
  return 1e3 * (s.end_s - s.start_s);
}

double Tracer::median_ms(const std::string& name) const {
  std::vector<double> v;
  for (const Span& s : spans_) {
    if (s.name == name) v.push_back(1e3 * (s.end_s - s.start_s));
  }
  return median(v);
}

std::vector<double> Tracer::child_seconds() const {
  std::vector<double> child_sum(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_sum[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  return child_sum;
}

std::vector<double> Tracer::unattributed_pct(const std::string& root) const {
  const std::vector<double> child_sum = child_seconds();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != root || s.parent >= 0) continue;
    const double d = s.end_s - s.start_s;
    if (d > 0.0) out.push_back(100.0 * (d - child_sum[i]) / d);
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  const std::vector<double> child_sum = child_seconds();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": " << json_string(s.name)
        << ", \"request\": " << s.request << ", \"parent\": " << s.parent
        << ", \"start_s\": " << json_number(s.start_s)
        << ", \"end_s\": " << json_number(s.end_s)
        << ", \"unattributed_s\": " << json_number(s.end_s - s.start_s - child_sum[i])
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("span file write failed: " + path);
}

void Tally::fail(const std::string& phase, const std::string& reason) {
  ++failed_[phase];
  ++reasons_[phase][reason];
  if (first_reason_.empty()) first_reason_ = phase + ": " + reason;
}

std::uint64_t Tally::attempted() const {
  std::uint64_t n = 0;
  for (const auto& [phase, count] : attempted_) n += count;
  return n;
}

std::uint64_t Tally::failed() const {
  std::uint64_t n = 0;
  for (const auto& [phase, count] : failed_) n += count;
  return n;
}

std::string Tally::json() const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [phase, count] : attempted_) {
    if (!first) out << ", ";
    first = false;
    const auto f = failed_.find(phase);
    out << json_string(phase) << ": {\"attempted\": " << count
        << ", \"failed\": " << (f == failed_.end() ? 0 : f->second) << ", \"reasons\": {";
    const auto r = reasons_.find(phase);
    if (r != reasons_.end()) {
      bool first_reason = true;
      for (const auto& [reason, n] : r->second) {
        if (!first_reason) out << ", ";
        first_reason = false;
        out << json_string(reason) << ": " << n;
      }
    }
    out << "}}";
  }
  out << "}";
  return out.str();
}

MapCheck check_map(const irf::GridF& map, const irf::GridF& golden, double mae_bound_volts) {
  MapCheck c;
  if (map.height() != golden.height() || map.width() != golden.width() ||
      map.size() == 0) {
    c.reason = "wrong map shape";
    return c;
  }
  double abs_sum = 0.0;
  float pred_max = -std::numeric_limits<float>::infinity();
  float gold_max = -std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < map.size(); ++i) {
    const float p = map.data()[i];
    if (!std::isfinite(p)) {
      c.reason = "non-finite map value";
      return c;
    }
    abs_sum += std::fabs(static_cast<double>(p) - golden.data()[i]);
    pred_max = std::max(pred_max, p);
    gold_max = std::max(gold_max, golden.data()[i]);
  }
  c.mae = abs_sum / static_cast<double>(map.size());
  c.mirde = std::fabs(static_cast<double>(pred_max) - gold_max);
  if (!(c.mae <= mae_bound_volts)) {
    c.reason = "MAE against golden above bound";
    return c;
  }
  c.ok = true;
  return c;
}

void corrupt_map(irf::GridF& map) {
  // A plausible-looking but wrong map: every pixel at the supply-collapse
  // level of a badly broken grid.
  for (float& v : map.data()) v = 0.05f;
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
