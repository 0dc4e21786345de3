#include "core/dbscan.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "common/random.h"

namespace dbsherlock::core {
namespace {

/// A point set stored dimension-major, with the PointColumns view over it.
class Points {
 public:
  Points() = default;
  Points(std::initializer_list<std::vector<double>> points) {
    for (const std::vector<double>& p : points) Add(p);
  }

  void Add(const std::vector<double>& point) {
    if (coords_.empty()) coords_.resize(point.size());
    for (size_t k = 0; k < point.size(); ++k) coords_[k].push_back(point[k]);
    ++size_;
  }

  PointColumns view() const {
    PointColumns out;
    for (const auto& c : coords_) out.columns.push_back(c.data());
    out.num_points = size_;
    return out;
  }

 private:
  std::vector<std::vector<double>> coords_;  // coords_[k][q]
  size_t size_ = 0;
};

DbscanResult Dbscan(const Points& points, double eps, int min_pts) {
  return core::Dbscan(points.view(), eps, min_pts);
}

std::vector<double> KDistances(const Points& points, int k) {
  return core::KDistances(points.view(), k);
}

Points TwoBlobs(size_t n_per_blob, uint64_t seed) {
  common::Pcg32 rng(seed);
  Points points;
  for (size_t i = 0; i < n_per_blob; ++i) {
    points.Add({rng.NextGaussian(0.0, 0.1), rng.NextGaussian(0.0, 0.1)});
  }
  for (size_t i = 0; i < n_per_blob; ++i) {
    points.Add({rng.NextGaussian(10.0, 0.1), rng.NextGaussian(10.0, 0.1)});
  }
  return points;
}

TEST(DbscanTest, SeparatesTwoBlobs) {
  auto points = TwoBlobs(50, 1);
  DbscanResult result = Dbscan(points, 1.0, 3);
  EXPECT_EQ(result.num_clusters, 2);
  // All points in the first blob share one id; second blob another.
  for (size_t i = 1; i < 50; ++i) {
    EXPECT_EQ(result.cluster_of[i], result.cluster_of[0]);
  }
  for (size_t i = 51; i < 100; ++i) {
    EXPECT_EQ(result.cluster_of[i], result.cluster_of[50]);
  }
  EXPECT_NE(result.cluster_of[0], result.cluster_of[50]);
}

TEST(DbscanTest, IsolatedPointIsNoise) {
  auto points = TwoBlobs(50, 2);
  points.Add({100.0, -100.0});
  DbscanResult result = Dbscan(points, 1.0, 3);
  EXPECT_EQ(result.cluster_of.back(), -1);
}

TEST(DbscanTest, ClusterSizes) {
  auto points = TwoBlobs(30, 3);
  points.Add({-50.0, -50.0});  // noise
  DbscanResult result = Dbscan(points, 1.0, 3);
  std::vector<size_t> sizes = result.ClusterSizes();
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0] + sizes[1], 60u);
}

TEST(DbscanTest, HugeEpsMakesOneCluster) {
  auto points = TwoBlobs(20, 4);
  DbscanResult result = Dbscan(points, 1000.0, 3);
  EXPECT_EQ(result.num_clusters, 1);
}

TEST(DbscanTest, TinyEpsMakesAllNoise) {
  auto points = TwoBlobs(20, 5);
  DbscanResult result = Dbscan(points, 1e-9, 3);
  EXPECT_EQ(result.num_clusters, 0);
  for (int c : result.cluster_of) EXPECT_EQ(c, -1);
}

TEST(DbscanTest, MinPtsOneClustersEverything) {
  Points points = {{0.0}, {100.0}};
  DbscanResult result = Dbscan(points, 0.5, 1);
  EXPECT_EQ(result.num_clusters, 2);
}

TEST(DbscanTest, EmptyInput) {
  DbscanResult result = Dbscan(Points{}, 1.0, 3);
  EXPECT_EQ(result.num_clusters, 0);
  EXPECT_TRUE(result.cluster_of.empty());
}

TEST(DbscanTest, BorderPointJoinsCluster) {
  // A dense core of 5 points plus one border point within eps of the core
  // but itself not core.
  Points points = {{0.0}, {0.1}, {0.2}, {0.3}, {0.4}, {1.2}};
  DbscanResult result = Dbscan(points, 0.9, 4);
  EXPECT_EQ(result.num_clusters, 1);
  EXPECT_EQ(result.cluster_of[5], 0);  // border point adopted
}

TEST(KDistancesTest, SimpleLine) {
  Points points = {{0.0}, {1.0}, {3.0}};
  std::vector<double> k1 = KDistances(points, 1);
  EXPECT_DOUBLE_EQ(k1[0], 1.0);  // nearest other point of 0 is 1
  EXPECT_DOUBLE_EQ(k1[1], 1.0);
  EXPECT_DOUBLE_EQ(k1[2], 2.0);
  std::vector<double> k2 = KDistances(points, 2);
  EXPECT_DOUBLE_EQ(k2[0], 3.0);
  EXPECT_DOUBLE_EQ(k2[1], 2.0);
  EXPECT_DOUBLE_EQ(k2[2], 3.0);
}

TEST(KDistancesTest, KBeyondSizeClampsToFarthest) {
  Points points = {{0.0}, {5.0}};
  std::vector<double> k = KDistances(points, 10);
  EXPECT_DOUBLE_EQ(k[0], 5.0);
}

TEST(KDistancesTest, NonPositiveKGivesZeros) {
  Points points = {{0.0}, {5.0}};
  std::vector<double> k = KDistances(points, 0);
  EXPECT_DOUBLE_EQ(k[0], 0.0);
}

}  // namespace
}  // namespace dbsherlock::core
