// Client-side matching of `dtpm serve` NDJSON replies to submitted jobs.
// Replies arrive in completion order, not submission order. A job's life is
// ack -> progress* -> result, or an error reply in place of the ack (the
// submit was refused) or of the result (S006, the job failed). The server
// emits the ack after queueing the job, so a fast job's result can overtake
// its own ack; the matcher accepts either order. Lines it cannot attribute
// to a live job come back as kUnmatched so the caller can count them as
// failures instead of dropping them.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "util/json.hpp"

namespace perfbench {

struct ReplyEvent {
  enum class Kind {
    kAck,        ///< submit accepted
    kProgress,   ///< fleet progress; job still running
    kResult,     ///< the job finished: "state" says done / failed / cancelled
    kError,      ///< the job failed or was refused (protocol-level if no job)
    kBye,        ///< the server's last line (shutdown drained)
    kUnmatched,  ///< not JSON, unknown reply kind, or no live job to match
  };
  Kind kind = Kind::kUnmatched;
  std::string job;  ///< the job the line concerns ("" when none)
  /// kAck: the job's result already arrived. kResult / kError: its ack did.
  bool other_half_seen = false;
  dtpm::util::JsonValue reply;  ///< the parsed line (null when not JSON)
};

class ReplyMatcher {
 public:
  /// Registers a submitted job id; throws std::invalid_argument while the
  /// id is still live.
  void submitted(const std::string& job);

  /// Classifies one reply line and updates the live set.
  ReplyEvent on_line(const std::string& line);

  /// Jobs without a result (or error) yet.
  std::size_t outstanding() const;

 private:
  struct Live {
    bool acked = false;
    bool finished = false;
  };
  /// A job leaves once both its ack and its result arrived (or an error).
  std::map<std::string, Live> live_;
};

}  // namespace perfbench
