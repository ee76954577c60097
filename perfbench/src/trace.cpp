#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

namespace perfbench {

using dtpm::util::JsonArray;
using dtpm::util::JsonObject;
using dtpm::util::JsonValue;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && std::size_t(s.parent) < spans.size()) {
      children[std::size_t(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;  // end of the covered prefix so far
    for (const auto& [start, end] : kids) {
      const std::int64_t lo = std::max(start, cursor);
      const std::int64_t hi = std::min(end, s.end_ns);
      if (hi > lo) covered += hi - lo;
      cursor = std::max(cursor, std::min(end, s.end_ns));
    }
    out[i] = (s.end_ns - s.start_ns) - covered;
  }
  return out;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  Span span;
  span.name = name;
  span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  index_ = std::int32_t(tracer_.spans_.size());
  tracer_.spans_.push_back(std::move(span));
  tracer_.open_.push_back(index_);
  // Stamped last so the bookkeeping above is not billed to the span.
  tracer_.spans_[std::size_t(index_)].start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[std::size_t(index_)].end_ns = now_ns();
  tracer_.open_.pop_back();
}

void Tracer::record(const std::string& name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint32_t track) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.track = track;
  spans_.push_back(std::move(span));
}

std::vector<double> Tracer::durations_ns(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(double(s.end_ns - s.start_ns));
  }
  return out;
}

double Tracer::total_ns(const std::string& name) const {
  double total = 0.0;
  for (double d : durations_ns(name)) total += d;
  return total;
}

std::vector<LayerRow> Tracer::layer_table() const {
  const std::vector<std::int64_t> self = self_times(spans_);
  std::map<std::string, LayerRow> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    LayerRow& row = rows[spans_[i].name];
    row.name = spans_[i].name;
    ++row.count;
    row.total_ms += double(spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    row.self_ms += double(self[i]) / 1e6;
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) out.push_back(std::move(row));
  std::sort(out.begin(), out.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

JsonValue Tracer::chrome_trace() const {
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  JsonArray events;
  events.reserve(spans_.size());
  for (const Span& s : spans_) {
    JsonValue event((JsonObject()));
    event.set("name", s.name);
    event.set("cat", s.name.substr(0, s.name.find('.')));
    event.set("ph", "X");
    event.set("ts", double(s.start_ns - origin) / 1e3);
    event.set("dur", double(s.end_ns - s.start_ns) / 1e3);
    event.set("pid", 1);
    event.set("tid", s.track);
    events.push_back(std::move(event));
  }
  JsonValue trace((JsonObject()));
  trace.set("traceEvents", JsonValue(std::move(events)));
  trace.set("displayTimeUnit", "ms");
  return trace;
}

}  // namespace perfbench
