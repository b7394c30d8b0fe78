// Small shared helpers: seeding, percentiles, RSS, metrics, trace export.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "stats/json.h"

namespace whisper::bench {

int host_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<int>(hw) : 1;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  // Nearest rank: the smallest value with at least p of the sample at or
  // below it.
  const double rank = std::ceil(p * static_cast<double>(sample.size()));
  const std::size_t k = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sample[std::min(k, sample.size() - 1)];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double ok_share(const Outcome& out) {
  const double attempted =
      static_cast<double>(std::max<std::uint64_t>(out.attempted, 1));
  return 1.0 - static_cast<double>(out.failed) / attempted;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : items_)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  items_.push_back({name, value, unit});
}

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        Clock::time_point origin) {
  const auto us = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  stats::JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit");
  w.value("ms");
  w.key("traceEvents");
  w.begin_array();
  for (const Span& s : spans) {
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("ph");
    w.value("X");
    w.key("pid");
    w.value(1);
    w.key("tid");
    w.value(static_cast<std::uint64_t>(s.tid));
    w.key("ts");
    w.value(us(s.start));
    w.key("dur");
    w.value(us(s.end) - us(s.start));
    w.key("args");
    w.begin_object();
    w.key("id");
    w.value(s.id);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string& text = w.str();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace whisper::bench
