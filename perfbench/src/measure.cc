#include "measure.h"

#include <sys/resource.h>

#include <cstdio>

namespace perfbench {

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

int SpanLog::Open(const std::string& name, int parent, std::size_t request) {
  Span span;
  span.name = name;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.request = request;
  span.start_s = NowSeconds();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::Close(int id, const Sample& sample) {
  spans_[static_cast<std::size_t>(id)].sample = sample;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
  bool ok = true;
  for (const Span& s : spans_) {
    ok = std::fprintf(out,
                      "{\"name\":\"%s\",\"id\":%d,\"parent\":%d,"
                      "\"request\":%zu,\"start_s\":%.9f,\"wall_s\":%.9f,"
                      "\"cpu_s\":%.6f}\n",
                      s.name.c_str(), s.id, s.parent, s.request,
                      s.start_s - t0, s.sample.wall_s, s.sample.cpu_s) > 0 &&
         ok;
  }
  return std::fclose(out) == 0 && ok;
}

}  // namespace perfbench
