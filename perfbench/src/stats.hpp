// Order statistics for the benchmark's reports: medians, nearest-rank
// percentiles with the "at least ten samples beyond" rule, and quartiles
// computed exactly like Python's statistics.quantiles(values, n=4), so a
// spread printed here matches the one a reader recomputes from the runs.
#pragma once

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count).
/// Throws std::invalid_argument when empty.
double median(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample such that at least p percent
/// of the samples are <= it. `p` in (0, 100]. Throws on an empty input or a
/// p outside that range.
double percentile(std::vector<double> values, double p);

/// percentile() over samples given as (value, multiplicity) pairs -- many
/// results that share one latency without storing each copy.
double weighted_percentile(
    std::vector<std::pair<double, std::size_t>> samples, double p);

/// Samples ranked strictly above the nearest-rank p-th percentile of `n`
/// samples -- the tail a percentile is estimated from.
std::size_t samples_beyond(std::size_t n, double p);

/// Whether a p-th percentile of `n` samples has at least `min_beyond`
/// samples beyond it (ten by default, so p99 needs 1000 samples).
bool percentile_supported(std::size_t n, double p, std::size_t min_beyond = 10);

/// Quartiles by Python's default 'exclusive' method. Needs >= 2 samples.
std::array<double, 3> quartiles(std::vector<double> values);

/// Interquartile range as a share of the median (0 when the median is 0).
double relative_iqr(const std::vector<double>& values);

}  // namespace perfbench
