#include "ndjson.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

using dtpm::util::JsonValue;

void ReplyMatcher::submitted(const std::string& job) {
  if (!live_.emplace(job, Live{}).second) {
    throw std::invalid_argument("job '" + job + "' is already live");
  }
}

std::size_t ReplyMatcher::outstanding() const {
  return std::size_t(std::count_if(live_.begin(), live_.end(), [](const auto& e) {
    return !e.second.finished;
  }));
}

ReplyEvent ReplyMatcher::on_line(const std::string& line) {
  ReplyEvent event;
  try {
    event.reply = dtpm::util::json_parse(line);
  } catch (const std::exception&) {
    return event;
  }
  const JsonValue* kind = event.reply.find("reply");
  if (kind == nullptr || !kind->is_string()) return event;
  if (const JsonValue* job = event.reply.find("job");
      job != nullptr && job->is_string()) {
    event.job = job->as_string();
  }
  const std::string& k = kind->as_string();
  if (k == "bye") {
    event.kind = ReplyEvent::Kind::kBye;
    return event;
  }
  if (k == "error" && event.job.empty()) {
    event.kind = ReplyEvent::Kind::kError;  // protocol-level, no job
    return event;
  }
  const auto it = live_.find(event.job);
  if (it == live_.end()) return event;  // unknown or already retired
  Live& live = it->second;
  if (k == "ack") {
    if (live.acked) return event;  // a second ack
    live.acked = true;
    event.kind = ReplyEvent::Kind::kAck;
    event.other_half_seen = live.finished;
  } else if (k == "progress") {
    if (live.finished) return event;
    event.kind = ReplyEvent::Kind::kProgress;
  } else if (k == "result" || k == "error") {
    if (live.finished) return event;
    live.finished = true;
    event.other_half_seen = live.acked;
    if (k == "result") {
      event.kind = ReplyEvent::Kind::kResult;
    } else {
      // A refused submit is never acked, and a failed job's error replaces
      // its result: either way nothing more will arrive for it.
      event.kind = ReplyEvent::Kind::kError;
      live.acked = true;
    }
  } else {
    return event;
  }
  if (live.acked && live.finished) live_.erase(it);
  return event;
}

}  // namespace perfbench
