#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

void require_samples(const std::vector<double>& values, std::size_t n,
                     const char* what) {
  if (values.size() < n) {
    throw std::invalid_argument(std::string(what) + ": too few samples");
  }
}

/// 1-based nearest rank of the p-th percentile among n samples.
std::size_t nearest_rank(std::size_t n, double p) {
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile: p must lie in (0, 100]");
  }
  // Rounded before the ceiling so p99 of 1000 is rank 990, not 991 from
  // the binary representation of 0.99.
  const double exact = std::round(p / 100.0 * double(n) * 1e9) / 1e9;
  const auto rank = std::size_t(std::ceil(exact));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double median(std::vector<double> values) {
  require_samples(values, 1, "median");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double percentile(std::vector<double> values, double p) {
  require_samples(values, 1, "percentile");
  const std::size_t rank = nearest_rank(values.size(), p);
  std::nth_element(values.begin(), values.begin() + long(rank - 1),
                   values.end());
  return values[rank - 1];
}

double weighted_percentile(std::vector<std::pair<double, std::size_t>> samples,
                           double p) {
  std::size_t total = 0;
  for (const auto& s : samples) total += s.second;
  if (total == 0) throw std::invalid_argument("percentile: too few samples");
  const std::size_t rank = nearest_rank(total, p);
  std::sort(samples.begin(), samples.end());
  std::size_t seen = 0;
  for (const auto& [value, count] : samples) {
    seen += count;
    if (seen >= rank) return value;
  }
  return samples.back().first;
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  return n - nearest_rank(n, p);
}

bool percentile_supported(std::size_t n, double p, std::size_t min_beyond) {
  return n > 0 && samples_beyond(n, p) >= min_beyond;
}

std::array<double, 3> quartiles(std::vector<double> values) {
  require_samples(values, 2, "quartiles");
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method='exclusive'): m = n + 1, and for i = 1..3
  // j = i*m // 4 clamped to [1, n-1], delta = i*m - 4*j (after the clamp,
  // so it may be negative or exceed 4), q_i = (x[j-1]*(4-delta) +
  // x[j]*delta) / 4.
  const long n = long(values.size());
  const long m = n + 1;
  std::array<double, 3> out{};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp<long>(i * m / 4, 1, n - 1);
    const long delta = i * m - 4 * j;
    out[std::size_t(i - 1)] =
        (values[std::size_t(j - 1)] * double(4 - delta) +
         values[std::size_t(j)] * double(delta)) /
        4.0;
  }
  return out;
}

double relative_iqr(const std::vector<double>& values) {
  const std::array<double, 3> q = quartiles(values);
  return q[1] == 0.0 ? 0.0 : (q[2] - q[0]) / q[1];
}

}  // namespace perfbench
