// In-memory span recorder for the traced benchmark run, written out once
// at the end as Chrome trace-event JSON (chrome://tracing and
// https://ui.perfetto.dev open it directly).
//
// Spans are complete events ("ph": "X") on one process. Every span of one
// agreement instance carries the instance id and its seed offset in
// `args`, and instance -> phase -> level -> round spans nest by time on
// the instance track (tid 1). Untraced reruns and layer probes go on
// their own track (tid 2).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  static constexpr int kInstanceTrack = 1;
  static constexpr int kProbeTrack = 2;

  void span(std::string name, const char* cat, Clock::time_point begin,
            Clock::time_point end, int track, std::uint64_t instance,
            std::uint64_t seed_offset) {
    spans_.push_back(Span{std::move(name), cat, us(begin), us(end) - us(begin),
                          track, instance, seed_offset});
  }

  /// Writes the trace file; returns false when it cannot be written.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"name\":\"instances\"}},\n"
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"name\":\"layer probes\"}}",
                 kInstanceTrack, kProbeTrack);
    for (const Span& s : spans_)
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                   "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"instance\":%llu,"
                   "\"seed_offset\":%llu}}",
                   s.name.c_str(), s.cat, s.ts_us, s.dur_us, s.track,
                   static_cast<unsigned long long>(s.instance),
                   static_cast<unsigned long long>(s.seed_offset));
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    const char* cat;
    double ts_us;
    double dur_us;
    int track;
    std::uint64_t instance;
    std::uint64_t seed_offset;
  };

  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

}  // namespace perfbench
