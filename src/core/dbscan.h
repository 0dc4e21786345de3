#ifndef DBSHERLOCK_CORE_DBSCAN_H_
#define DBSHERLOCK_CORE_DBSCAN_H_

#include <cstddef>
#include <vector>

namespace dbsherlock::core {

/// Result of a DBSCAN run: cluster id per point (-1 for noise) and the
/// number of clusters found.
struct DbscanResult {
  std::vector<int> cluster_of;  // -1 = noise
  int num_clusters = 0;

  /// Sizes of each cluster, indexed by cluster id.
  std::vector<size_t> ClusterSizes() const;
};

/// Dimension-major view of a point set: columns[k][q] is coordinate k of
/// point q, each column `num_points` long. This is the layout the anomaly
/// detector already holds its selected attributes in, and the layout the
/// dispatched SquaredDistancesToAll kernel streams — no per-point gather.
struct PointColumns {
  std::vector<const double*> columns;
  size_t num_points = 0;

  size_t dims() const { return columns.size(); }
};

/// Density-based clustering (Ester et al., KDD'96), Euclidean metric,
/// O(n^2) neighbor search — ample for the per-dataset row counts DBSherlock
/// handles. Each neighbor query is one kernel sweep of the query point's
/// squared distances to all points, accumulated in dimension order.
DbscanResult Dbscan(const PointColumns& points, double eps, int min_pts);

/// Distance of each point to its k-th nearest *other* neighbor — the
/// k-dist list the paper uses to pick epsilon (eps = max(Lk) / 4). k
/// beyond the point count clamps to the farthest neighbor; k <= 0 gives
/// zeros.
std::vector<double> KDistances(const PointColumns& points, int k);

}  // namespace dbsherlock::core

#endif  // DBSHERLOCK_CORE_DBSCAN_H_
