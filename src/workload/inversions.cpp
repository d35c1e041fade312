#include "workload/inversions.hpp"

#include <vector>

namespace wcm::workload {

namespace {

// Bottom-up merge counting crossings: when an element of the right run is
// emitted before remaining elements of the left run, each remaining left
// element forms an inversion with it.
u64 merge_count(std::vector<dmm::word>& data, std::vector<dmm::word>& buffer) {
  const std::size_t n = data.size();
  u64 inversions = 0;
  for (std::size_t run = 1; run < n; run *= 2) {
    for (std::size_t lo = 0; lo + run < n; lo += 2 * run) {
      const std::size_t mid = lo + run;
      const std::size_t hi = std::min(lo + 2 * run, n);
      std::size_t i = lo, j = mid, k = lo;
      while (i < mid && j < hi) {
        if (data[i] <= data[j]) {
          buffer[k++] = data[i++];
        } else {
          inversions += mid - i;
          buffer[k++] = data[j++];
        }
      }
      while (i < mid) {
        buffer[k++] = data[i++];
      }
      while (j < hi) {
        buffer[k++] = data[j++];
      }
      std::copy(buffer.begin() + static_cast<std::ptrdiff_t>(lo),
                buffer.begin() + static_cast<std::ptrdiff_t>(hi),
                data.begin() + static_cast<std::ptrdiff_t>(lo));
    }
  }
  return inversions;
}

}  // namespace

u64 count_inversions(std::span<const dmm::word> v) {
  std::vector<dmm::word> data(v.begin(), v.end());
  std::vector<dmm::word> buffer(data.size());
  return merge_count(data, buffer);
}

double inversion_fraction(u64 inversions, std::size_t n) {
  if (n < 2) {
    return 0.0;
  }
  const double max_inv =
      static_cast<double>(n) * (static_cast<double>(n) - 1.0) / 2.0;
  return static_cast<double>(inversions) / max_inv;
}

double inversion_fraction(std::span<const dmm::word> v) {
  return inversion_fraction(count_inversions(v), v.size());
}

}  // namespace wcm::workload
