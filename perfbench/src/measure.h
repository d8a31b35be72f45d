#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

/// \file measure.h
/// Timing primitives for the benchmark: wall + process-CPU samples, the
/// order statistics the report uses, and an in-memory span log that the
/// traced run writes out once, at exit.

namespace perfbench {

/// Process user+sys CPU seconds so far (all threads).
double ProcessCpuSeconds();

/// Peak resident set of the process in MiB.
double PeakRssMb();

/// Seconds on the steady clock since an arbitrary epoch.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call: wall seconds and the process CPU seconds it burned.
struct Sample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Workers actually busy over the call: CPU-seconds per wall-second.
  double util() const { return wall_s > 0.0 ? cpu_s / wall_s : 0.0; }
};

template <typename Fn>
Sample Measure(Fn&& fn) {
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  std::forward<Fn>(fn)();
  const double t1 = NowSeconds();
  return {t1 - t0, ProcessCpuSeconds() - cpu0};
}

/// Median of `values` (mean of the middle two for even sizes); 0 when
/// empty.
double Median(std::vector<double> values);

/// Spans recorded around the library calls of the traced run. Spans of
/// one operation share `request`; `parent` is the id of the enclosing
/// span or -1.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int id = 0;
    int parent = -1;
    std::size_t request = 0;
    double start_s = 0.0;
    Sample sample;
  };

  /// Runs `fn` inside a span and returns its sample. Pass the id that
  /// `Open` returned as `parent` to nest.
  template <typename Fn>
  Sample Run(const std::string& name, int parent, std::size_t request,
             Fn&& fn) {
    const int id = Open(name, parent, request);
    const Sample sample = Measure(std::forward<Fn>(fn));
    Close(id, sample);
    return sample;
  }

  /// Opens a span whose sample is filled in later by Close.
  int Open(const std::string& name, int parent, std::size_t request);
  void Close(int id, const Sample& sample);

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line; false on an I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
