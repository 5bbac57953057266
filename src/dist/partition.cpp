#include "dist/partition.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/error.hpp"

namespace opv::dist {

namespace {

/// Recursively bisect `ids` (indices into coords) into nparts parts starting
/// at part id `base`, splitting along the longest axis of the ndims-D
/// bounding box with counts proportional to the part counts on each side.
void rcb_split(const double* coords, int ndims, std::vector<idx_t>& ids, idx_t begin, idx_t end,
               int nparts, int base, aligned_vector<int>& owner) {
  if (nparts == 1) {
    for (idx_t i = begin; i < end; ++i) owner[ids[i]] = base;
    return;
  }
  const int nl = (nparts + 1) / 2;
  const int nr = nparts - nl;
  const idx_t n = end - begin;
  const idx_t k = static_cast<idx_t>(
      std::llround(static_cast<double>(n) * nl / static_cast<double>(nparts)));

  // Longest axis of the true ndims-dimensional bounding box.
  double lo[3] = {1e300, 1e300, 1e300};
  double hi[3] = {-1e300, -1e300, -1e300};
  for (idx_t i = begin; i < end; ++i) {
    const double* p = coords + static_cast<std::size_t>(ndims) * static_cast<std::size_t>(ids[i]);
    for (int a = 0; a < ndims; ++a) {
      lo[a] = std::min(lo[a], p[a]);
      hi[a] = std::max(hi[a], p[a]);
    }
  }
  int axis = 0;
  for (int a = 1; a < ndims; ++a)
    if (hi[a] - lo[a] > hi[axis] - lo[axis]) axis = a;

  std::nth_element(ids.begin() + begin, ids.begin() + begin + k, ids.begin() + end,
                   [&](idx_t a, idx_t b) {
                     const double ca = coords[ndims * static_cast<std::size_t>(a) + axis];
                     const double cb = coords[ndims * static_cast<std::size_t>(b) + axis];
                     return ca != cb ? ca < cb : a < b;  // deterministic tie-break
                   });

  rcb_split(coords, ndims, ids, begin, begin + k, nl, base, owner);
  rcb_split(coords, ndims, ids, begin + k, end, nr, base + nl, owner);
}

}  // namespace

aligned_vector<int> partition_rcb(const double* coords, idx_t n, int nparts, int ndims) {
  OPV_REQUIRE(nparts >= 1, "partition_rcb: nparts must be >= 1, got " << nparts);
  OPV_REQUIRE(n >= 0, "partition_rcb: negative element count");
  OPV_REQUIRE(ndims == 2 || ndims == 3, "partition_rcb: ndims must be 2 or 3, got " << ndims);
  // The bisection's ordering is not a strict weak ordering under NaN.
  for (std::size_t i = 0; i < static_cast<std::size_t>(n) * ndims; ++i)
    OPV_REQUIRE(std::isfinite(coords[i]),
                "partition_rcb: coordinate " << i % ndims << " of element " << i / ndims
                                             << " is not finite");
  aligned_vector<int> owner(static_cast<std::size_t>(n), 0);
  if (n == 0 || nparts == 1) return owner;
  std::vector<idx_t> ids(static_cast<std::size_t>(n));
  std::iota(ids.begin(), ids.end(), idx_t{0});
  rcb_split(coords, ndims, ids, 0, n, nparts, 0, owner);
  return owner;
}

aligned_vector<int> partition_block(idx_t n, int nparts) {
  OPV_REQUIRE(nparts >= 1, "partition_block: nparts must be >= 1, got " << nparts);
  aligned_vector<int> owner(static_cast<std::size_t>(n), 0);
  if (n == 0) return owner;
  const idx_t chunk = (n + nparts - 1) / nparts;
  for (idx_t i = 0; i < n; ++i) owner[i] = static_cast<int>(i / chunk);
  return owner;
}

std::vector<idx_t> part_sizes(const aligned_vector<int>& owner, int nparts) {
  std::vector<idx_t> sizes(static_cast<std::size_t>(std::max(nparts, 0)), 0);
  for (int r : owner) {
    OPV_REQUIRE(r >= 0 && r < nparts, "part_sizes: owner " << r << " outside [0," << nparts << ")");
    ++sizes[r];
  }
  return sizes;
}

}  // namespace opv::dist
