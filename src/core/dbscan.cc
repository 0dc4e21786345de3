#include "core/dbscan.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/simd/simd.h"

namespace dbsherlock::core {

std::vector<size_t> DbscanResult::ClusterSizes() const {
  std::vector<size_t> sizes(static_cast<size_t>(num_clusters), 0);
  for (int c : cluster_of) {
    if (c >= 0) ++sizes[static_cast<size_t>(c)];
  }
  return sizes;
}

namespace {

/// Neighbor query: one kernel sweep fills `dist_sq` with point p's squared
/// distances to every point, then the eps-ball is read off the buffer
/// (self excluded by index).
std::vector<size_t> Neighbors(const PointColumns& points, size_t p,
                              double eps_sq, std::vector<double>* dist_sq) {
  common::simd::SquaredDistancesToAll(points.columns.data(), points.dims(),
                                      points.num_points, p, dist_sq->data());
  std::vector<size_t> out;
  for (size_t q = 0; q < points.num_points; ++q) {
    if (q != p && (*dist_sq)[q] <= eps_sq) out.push_back(q);
  }
  return out;
}

}  // namespace

DbscanResult Dbscan(const PointColumns& points, double eps, int min_pts) {
  DbscanResult result;
  const size_t n = points.num_points;
  constexpr int kUnvisited = -2;
  constexpr int kNoise = -1;
  result.cluster_of.assign(n, kUnvisited);
  double eps_sq = eps * eps;
  int cluster = 0;
  std::vector<double> dist_sq(n, 0.0);

  for (size_t p = 0; p < n; ++p) {
    if (result.cluster_of[p] != kUnvisited) continue;
    std::vector<size_t> seeds = Neighbors(points, p, eps_sq, &dist_sq);
    // A core point has at least min_pts points in its eps-ball, itself
    // included.
    if (static_cast<int>(seeds.size()) + 1 < min_pts) {
      result.cluster_of[p] = kNoise;
      continue;
    }
    result.cluster_of[p] = cluster;
    std::deque<size_t> queue(seeds.begin(), seeds.end());
    while (!queue.empty()) {
      size_t q = queue.front();
      queue.pop_front();
      if (result.cluster_of[q] == kNoise) {
        result.cluster_of[q] = cluster;  // border point
      }
      if (result.cluster_of[q] != kUnvisited) continue;
      result.cluster_of[q] = cluster;
      std::vector<size_t> q_neighbors = Neighbors(points, q, eps_sq, &dist_sq);
      if (static_cast<int>(q_neighbors.size()) + 1 >= min_pts) {
        for (size_t r : q_neighbors) queue.push_back(r);
      }
    }
    ++cluster;
  }
  result.num_clusters = cluster;
  return result;
}

std::vector<double> KDistances(const PointColumns& points, int k) {
  const size_t n = points.num_points;
  std::vector<double> out(n, 0.0);
  if (k <= 0 || n == 0) return out;
  std::vector<double> dist_sq(n, 0.0);
  std::vector<double> dists;
  for (size_t p = 0; p < n; ++p) {
    common::simd::SquaredDistancesToAll(points.columns.data(), points.dims(),
                                        n, p, dist_sq.data());
    dists.clear();
    dists.reserve(n - 1);
    // Self is excluded by index (its computed distance is exactly 0, but
    // dropping it by value would also drop genuine duplicate points and
    // shift the k-dist rank).
    for (size_t q = 0; q < n; ++q) {
      if (q != p) dists.push_back(dist_sq[q]);
    }
    if (dists.empty()) continue;
    size_t rank = std::min<size_t>(static_cast<size_t>(k) - 1,
                                   dists.size() - 1);
    std::nth_element(dists.begin(), dists.begin() + rank, dists.end());
    out[p] = std::sqrt(dists[rank]);
  }
  return out;
}

}  // namespace dbsherlock::core
