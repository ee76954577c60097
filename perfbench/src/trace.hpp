// In-memory span recording for the traced run. Spans wrap the benchmark's
// own calls into each layer's public functions (nothing inside the program
// is instrumented); they are kept in memory and written out once, as Chrome
// trace-event JSON (Perfetto / chrome://tracing) plus a per-layer table of
// self time -- a span's duration minus the part its child spans cover.
//
// A disabled Tracer records nothing and reads no clock, so the timed
// (untraced) passes run the same code with tracing off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns();

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the enclosing span in the same trace, -1 for a root.
  std::int32_t parent = -1;
  /// Chrome "tid": 0 is the main thread; client-side request intervals
  /// recorded after the fact go on their own tracks.
  std::uint32_t track = 0;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span. Children may overlap (async
/// tracks); covered time is never subtracted twice.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// One row of the per-layer table: every span of one name.
struct LayerRow {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// RAII span on the main thread, nested under the innermost open one.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_ = -1;
  };

  /// A finished interval measured elsewhere (client-side request spans).
  void record(const std::string& name, std::int64_t start_ns,
              std::int64_t end_ns, std::uint32_t track);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in ns of every span called `name`, in recording order.
  std::vector<double> durations_ns(const std::string& name) const;
  /// Summed duration in ns of every span called `name`.
  double total_ns(const std::string& name) const;

  /// Rows sorted by self time, largest first.
  std::vector<LayerRow> layer_table() const;

  /// {"traceEvents": [...complete events...], "displayTimeUnit": "ms"}.
  dtpm::util::JsonValue chrome_trace() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  ///< stack of open main-thread spans
};

}  // namespace perfbench
