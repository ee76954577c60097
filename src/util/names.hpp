// Name-lookup ergonomics shared by every string-keyed registry (policies,
// governors, benchmarks, scenario families, platforms): when a lookup misses,
// the error should carry the sorted list of valid names and, when one is
// plausibly a typo away, a nearest-match suggestion.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace dtpm::util {

/// Levenshtein distance (insert/delete/substitute, all cost 1).
std::size_t edit_distance(std::string_view a, std::string_view b);

/// The candidate closest to `name` by edit distance, or an empty string when
/// none is close enough to be a plausible typo (distance must be at most
/// `max_distance` and strictly less than the candidate's length, so short
/// names never "suggest" unrelated short names).
std::string closest_match(std::string_view name,
                          const std::vector<std::string>& candidates,
                          std::size_t max_distance = 3);

/// Uniform unknown-name diagnostic:
///   unknown policy 'dtmp', did you mean 'dtpm'? (valid: a, b, c)
/// `kind` is the singular noun ("policy", "benchmark", ...); `valid` is
/// copied and sorted, so callers may pass names in any order.
std::string unknown_name_message(std::string_view kind, std::string_view name,
                                 std::vector<std::string> valid);

}  // namespace dtpm::util
