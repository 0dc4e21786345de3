// TenantStore: seal/scan/tail stitching, crash recovery (torn tails
// dropped exactly once, intact segments kept), retention by bytes and
// age, and the schema / ordering invariants the service relies on.

#include "store/tenant_store.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/faultenv.h"
#include "store/segment.h"
#include "tsdata/dataset.h"

namespace dbsherlock::store {
namespace {

using tsdata::AttributeKind;
using tsdata::Cell;
using tsdata::Dataset;
using tsdata::Schema;

Schema TestSchema() {
  return Schema({{"cpu", AttributeKind::kNumeric},
                 {"mode", AttributeKind::kCategorical}});
}

/// Per-test directory; wiped so reruns in the same TempDir start clean.
std::string StoreDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/dbsherlock_tstore_" +
                    std::to_string(getpid()) + "_" + name;
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
  return dir;
}

std::unique_ptr<TenantStore> MustOpen(TenantStore::Options options) {
  auto store = TenantStore::Open(std::move(options));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(*store);
}

TenantStore::Options SmallOptions(const std::string& dir) {
  TenantStore::Options options;
  options.dir = dir;
  options.schema = TestSchema();
  options.seal_rows = 10;
  options.fsync_on_seal = false;  // tests: speed over durability
  return options;
}

std::vector<Cell> Row(double cpu, const std::string& mode) {
  return {cpu, mode};
}

/// Appends rows t = [from, to) with cpu = t.
void Fill(TenantStore* store, int from, int to) {
  for (int t = from; t < to; ++t) {
    ASSERT_TRUE(
        store->Append(t, Row(t, t % 2 == 0 ? "even" : "odd")).ok());
  }
}

TEST(TenantStoreTest, AppendSealsEverySealRows) {
  auto store = MustOpen(SmallOptions(StoreDir("seal")));
  Fill(store.get(), 0, 25);
  EXPECT_EQ(store->num_segments(), 2u);
  EXPECT_EQ(store->sealed_rows(), 20u);
  EXPECT_EQ(store->active_rows(), 5u);
  ASSERT_TRUE(store->Seal().ok());
  EXPECT_EQ(store->num_segments(), 3u);
  EXPECT_EQ(store->active_rows(), 0u);
  EXPECT_TRUE(store->Seal().ok());  // empty active: no-op
  EXPECT_EQ(store->num_segments(), 3u);
  EXPECT_GT(store->compression_ratio(), 0.0);
}

TEST(TenantStoreTest, ScanStitchesSegmentsAndActiveTail) {
  auto store = MustOpen(SmallOptions(StoreDir("scan")));
  Fill(store.get(), 0, 25);  // 2 sealed segments + 5 active rows
  auto scan = store->Scan(7.0, 23.0);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->num_rows(), 16u);  // [7, 23)
  for (size_t i = 0; i < scan->num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(scan->timestamp(i), 7.0 + i);
    EXPECT_DOUBLE_EQ(scan->column(0).numeric(i), 7.0 + i);
  }
  EXPECT_TRUE(scan->TimestampsSorted());
  // Categorical cells survive the stitch.
  const tsdata::Column& mode = scan->column(1);
  EXPECT_EQ(mode.CategoryName(mode.code(1)), "even");  // t = 8
}

TEST(TenantStoreTest, ScanOutsideHistoryIsEmptyAndBadRangeRejected) {
  auto store = MustOpen(SmallOptions(StoreDir("scanedge")));
  Fill(store.get(), 0, 12);
  auto empty = store->Scan(100.0, 200.0);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->num_rows(), 0u);
  EXPECT_FALSE(store->Scan(5.0, 5.0).ok());
  EXPECT_FALSE(store->Scan(9.0, 2.0).ok());
}

TEST(TenantStoreTest, ScanTailReturnsNewestRowsAcrossSegments) {
  auto store = MustOpen(SmallOptions(StoreDir("tail")));
  Fill(store.get(), 0, 25);
  auto tail = store->ScanTail(12);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  ASSERT_EQ(tail->num_rows(), 12u);
  EXPECT_DOUBLE_EQ(tail->timestamp(0), 13.0);
  EXPECT_DOUBLE_EQ(tail->timestamp(11), 24.0);
  // More than stored: everything comes back.
  auto all = store->ScanTail(1000);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->num_rows(), 25u);
}

TEST(TenantStoreTest, RejectsNonIncreasingTimestamps) {
  auto store = MustOpen(SmallOptions(StoreDir("order")));
  ASSERT_TRUE(store->Append(5.0, Row(1, "even")).ok());
  EXPECT_FALSE(store->Append(5.0, Row(2, "odd")).ok());   // duplicate
  EXPECT_FALSE(store->Append(4.0, Row(3, "even")).ok());  // decreasing
  ASSERT_TRUE(store->Append(6.0, Row(4, "even")).ok());
  // The invariant spans a seal: last sealed ts still fences appends.
  Fill(store.get(), 7, 17);
  ASSERT_GE(store->num_segments(), 1u);
  EXPECT_FALSE(store->Append(3.0, Row(5, "odd")).ok());
}

TEST(TenantStoreTest, ReopenRecoversEverySealedRow) {
  std::string dir = StoreDir("reopen");
  {
    auto store = MustOpen(SmallOptions(dir));
    Fill(store.get(), 0, 37);
    ASSERT_TRUE(store->Seal().ok());  // persist the 7-row tail
  }
  auto store = MustOpen(SmallOptions(dir));
  EXPECT_EQ(store->recovery().segments_recovered, 4u);
  EXPECT_EQ(store->recovery().rows_recovered, 37u);
  EXPECT_EQ(store->recovery().segments_dropped, 0u);
  auto all = store->ScanTail(1000);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->num_rows(), 37u);
  // Appends continue after the recovered history.
  EXPECT_FALSE(store->Append(36.0, Row(0, "even")).ok());
  EXPECT_TRUE(store->Append(37.0, Row(0, "odd")).ok());
}

TEST(TenantStoreTest, AdoptsSchemaFromDiskWhenUnspecified) {
  std::string dir = StoreDir("adopt");
  {
    auto store = MustOpen(SmallOptions(dir));
    Fill(store.get(), 0, 10);
  }
  TenantStore::Options options;
  options.dir = dir;  // schema left empty
  options.fsync_on_seal = false;
  auto store = MustOpen(std::move(options));
  EXPECT_TRUE(store->schema() == TestSchema());
  EXPECT_EQ(store->sealed_rows(), 10u);
}

TEST(TenantStoreTest, RejectsSchemaMismatchOnReopen) {
  std::string dir = StoreDir("mismatch");
  {
    auto store = MustOpen(SmallOptions(dir));
    Fill(store.get(), 0, 10);
  }
  TenantStore::Options options = SmallOptions(dir);
  options.schema = Schema({{"other", AttributeKind::kNumeric}});
  auto store = TenantStore::Open(std::move(options));
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(),
            common::StatusCode::kFailedPrecondition);
}

TEST(TenantStoreTest, TornTailIsDroppedExactlyOnce) {
  std::string dir = StoreDir("torn");
  std::string last_path;
  {
    auto store = MustOpen(SmallOptions(dir));
    Fill(store.get(), 0, 30);  // 3 sealed segments
    last_path = store->Manifest().back().path;
  }
  // Simulate a crash mid-seal: chop the newest segment file in half.
  struct stat st{};
  ASSERT_EQ(::stat(last_path.c_str(), &st), 0);
  ASSERT_EQ(::truncate(last_path.c_str(), st.st_size / 2), 0);

  auto store = MustOpen(SmallOptions(dir));
  EXPECT_EQ(store->recovery().segments_recovered, 2u);
  EXPECT_EQ(store->recovery().segments_dropped, 1u);
  EXPECT_GT(store->recovery().bytes_dropped, 0u);
  auto all = store->ScanTail(1000);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->num_rows(), 20u);  // rows before the corruption survive
  // The torn file is gone from disk: a second reopen drops nothing.
  EXPECT_NE(::access(last_path.c_str(), F_OK), 0);
  auto again = MustOpen(SmallOptions(dir));
  EXPECT_EQ(again->recovery().segments_dropped, 0u);
  EXPECT_EQ(again->recovery().rows_recovered, 20u);
}

TEST(TenantStoreTest, CorruptMiddleSegmentIsDroppedOthersKept) {
  std::string dir = StoreDir("corruptmid");
  std::string mid_path;
  {
    auto store = MustOpen(SmallOptions(dir));
    Fill(store.get(), 0, 30);
    mid_path = store->Manifest()[1].path;
  }
  // Flip one payload byte past the header.
  std::fstream f(mid_path,
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekp(40);
  char byte = 0;
  f.seekg(40);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x10);
  f.seekp(40);
  f.write(&byte, 1);
  f.close();

  auto store = MustOpen(SmallOptions(dir));
  EXPECT_EQ(store->recovery().segments_recovered, 2u);
  EXPECT_EQ(store->recovery().segments_dropped, 1u);
  auto all = store->ScanTail(1000);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->num_rows(), 20u);  // segments 1 and 3
  EXPECT_TRUE(all->TimestampsSorted());
}

TEST(TenantStoreTest, RetentionByBytesKeepsNewestSegments) {
  TenantStore::Options options = SmallOptions(StoreDir("retbytes"));
  auto store = MustOpen(options);
  Fill(store.get(), 0, 50);  // 5 segments
  uint64_t five_seg_bytes = store->sealed_bytes();
  ASSERT_EQ(store->num_segments(), 5u);
  // Budget for roughly two segments: older ones must go on next seal.
  store->SetRetention(/*retain_bytes=*/2 * five_seg_bytes / 5 + 64,
                      /*retain_age_sec=*/0.0);
  Fill(store.get(), 50, 60);  // triggers a seal + enforcement
  EXPECT_LT(store->num_segments(), 5u);
  EXPECT_GT(store->retention_deletes(), 0u);
  // Newest data is always intact.
  auto tail = store->ScanTail(10);
  ASSERT_TRUE(tail.ok());
  EXPECT_DOUBLE_EQ(tail->timestamp(9), 59.0);
  // Deleted files are really gone from disk.
  size_t files = 0;
  for (const auto& seg : store->Manifest()) {
    EXPECT_EQ(::access(seg.path.c_str(), F_OK), 0);
    ++files;
  }
  EXPECT_EQ(files, store->num_segments());
}

TEST(TenantStoreTest, RetentionByAgeDropsOldSegments) {
  TenantStore::Options options = SmallOptions(StoreDir("retage"));
  options.retain_age_sec = 25.0;
  auto store = MustOpen(options);
  Fill(store.get(), 0, 60);  // segments end at t=9,19,...,59
  // Segments whose max_ts < 59 - 25 = 34 are dropped: the first three.
  EXPECT_EQ(store->num_segments(), 3u);
  EXPECT_GE(store->retention_deletes(), 3u);
  auto all = store->ScanTail(1000);
  ASSERT_TRUE(all.ok());
  EXPECT_DOUBLE_EQ(all->timestamp(0), 30.0);
}

TEST(TenantStoreTest, RetentionNeverDeletesTheNewestSegment) {
  TenantStore::Options options = SmallOptions(StoreDir("retlast"));
  options.retain_bytes = 1;  // absurd budget
  auto store = MustOpen(options);
  Fill(store.get(), 0, 30);
  EXPECT_EQ(store->num_segments(), 1u);  // still one left
  auto tail = store->ScanTail(10);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->num_rows(), 10u);
}

TEST(TenantStoreTest, OpenRejectsMissingDirAndBadSealRows) {
  TenantStore::Options options;
  options.schema = TestSchema();
  EXPECT_FALSE(TenantStore::Open(options).ok());  // no dir
  options.dir = StoreDir("badseal");
  options.seal_rows = 0;
  EXPECT_FALSE(TenantStore::Open(options).ok());
}

TEST(TenantStoreTest, ForeignFilesInDirAreIgnored) {
  std::string dir = StoreDir("foreign");
  {
    auto store = MustOpen(SmallOptions(dir));
    Fill(store.get(), 0, 10);
  }
  std::ofstream(dir + "/README.txt") << "not a segment\n";
  std::ofstream(dir + "/seg-junk.dbs") << "bad name, ignored\n";
  auto store = MustOpen(SmallOptions(dir));
  EXPECT_EQ(store->recovery().segments_recovered, 1u);
  EXPECT_EQ(store->recovery().segments_dropped, 0u);
  EXPECT_EQ(::access((dir + "/README.txt").c_str(), F_OK), 0);
}

/// Installs a faultenv schedule for one test and clears it on exit, so a
/// failing assertion can't leak injected faults into later tests.
struct ScopedSchedule {
  explicit ScopedSchedule(const std::string& spec) {
    EXPECT_TRUE(common::faultenv::InstallSchedule(spec).ok()) << spec;
  }
  ~ScopedSchedule() { common::faultenv::Clear(); }
};

TEST(TenantStoreTest, FailedSealFsyncKeepsRowsActiveAndRetries) {
  auto options = SmallOptions(StoreDir("fault_sealfsync"));
  options.fsync_on_seal = true;  // seg.fsync only fires on the real path
  auto store = MustOpen(options);
  Fill(store.get(), 0, 9);
  {
    ScopedSchedule schedule("seg.fsync=enospc@1,limit=1");
    // The 10th row trips the seal, which fails on fsync; the rows must
    // stay buffered, not vanish with the unlinked partial segment.
    EXPECT_FALSE(store->Append(9.0, Row(9, "odd")).ok());
    EXPECT_EQ(store->num_segments(), 0u);
    EXPECT_EQ(store->active_rows(), 10u);
    // The next append retries the seal under a fresh seq and succeeds.
    ASSERT_TRUE(store->Append(10.0, Row(10, "even")).ok());
  }
  EXPECT_EQ(store->num_segments(), 1u);
  EXPECT_EQ(store->sealed_rows(), 11u);
  EXPECT_EQ(store->active_rows(), 0u);
}

TEST(TenantStoreTest, FailedSealWriteRecoversToTheLastSealedSegment) {
  std::string dir = StoreDir("fault_sealwrite");
  {
    auto store = MustOpen(SmallOptions(dir));
    Fill(store.get(), 0, 10);  // one cleanly sealed segment
    ASSERT_EQ(store->num_segments(), 1u);
    ScopedSchedule schedule("seg.write=torn@1,limit=1");
    Fill(store.get(), 10, 19);
    EXPECT_FALSE(store->Append(19.0, Row(19, "odd")).ok());  // torn seal
    EXPECT_EQ(store->num_segments(), 1u);
    EXPECT_EQ(store->active_rows(), 10u);
  }
  // A crash right after the failed seal: reopen finds only the segment
  // that was actually acked durable (the partial file was unlinked).
  auto store = MustOpen(SmallOptions(dir));
  EXPECT_EQ(store->recovery().segments_recovered, 1u);
  EXPECT_EQ(store->sealed_rows(), 10u);
  // History resumes exactly past the sealed high-water mark.
  EXPECT_FALSE(store->Append(9.0, Row(9, "odd")).ok());
  EXPECT_TRUE(store->Append(10.0, Row(10, "even")).ok());
}

// --- Zone-map pushdown (DESIGN.md §14) ---------------------------------

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileOrDie(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  EXPECT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(TenantStoreTest, ManifestCarriesZoneMaps) {
  auto store = MustOpen(SmallOptions(StoreDir("zones")));
  Fill(store.get(), 0, 10);
  auto manifest = store->Manifest();
  ASSERT_EQ(manifest.size(), 1u);
  const ZoneMap& zones = manifest[0].zones;
  EXPECT_EQ(zones.rows, 10u);
  EXPECT_DOUBLE_EQ(zones.min_ts, 0.0);
  EXPECT_DOUBLE_EQ(zones.max_ts, 9.0);
  ASSERT_EQ(zones.attrs.size(), 2u);
  EXPECT_DOUBLE_EQ(zones.attrs[0].min, 0.0);
  EXPECT_DOUBLE_EQ(zones.attrs[0].max, 9.0);
  EXPECT_EQ(zones.attrs[0].non_nan_count, 10u);
  EXPECT_EQ(zones.attrs[0].finite_count, 10u);
  EXPECT_EQ(zones.attrs[1].non_nan_count, 10u);  // categorical: present
}

TEST(TenantStoreTest, PushdownPrunesSegmentsAndMatchesFullDecode) {
  auto store = MustOpen(SmallOptions(StoreDir("pushdown")));
  Fill(store.get(), 0, 50);  // 5 sealed segments, cpu == t
  // Time pruning alone: [25, 30) lives in exactly one segment.
  ScanOptions time_opts;
  time_opts.t0 = 25.0;
  time_opts.t1 = 30.0;
  ScanStats time_stats;
  auto window = store->ScanWithOptions(time_opts, &time_stats);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  EXPECT_EQ(window->num_rows(), 5u);
  EXPECT_EQ(time_stats.segments_total, 5u);
  EXPECT_EQ(time_stats.segments_skipped_time, 4u);
  EXPECT_EQ(time_stats.segments_decoded, 1u);
  // Attribute pruning: cpu in [35, 44] spans segments 4 and 5 only.
  ScanOptions zone_opts;
  zone_opts.bounds.push_back({"cpu", 35.0, 44.0});
  ScanStats zone_stats;
  auto bounded = store->ScanWithOptions(zone_opts, &zone_stats);
  ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
  EXPECT_EQ(bounded->num_rows(), 10u);
  EXPECT_EQ(zone_stats.segments_skipped_zone, 3u);
  EXPECT_EQ(zone_stats.segments_decoded, 2u);
  // Parity: the prune-free full decode returns the identical rows.
  ScanOptions full = zone_opts;
  full.prune = false;
  ScanStats full_stats;
  auto baseline = store->ScanWithOptions(full, &full_stats);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(full_stats.segments_decoded, 5u);
  EXPECT_EQ(full_stats.segments_skipped_zone, 0u);
  ASSERT_EQ(baseline->num_rows(), bounded->num_rows());
  for (size_t i = 0; i < baseline->num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(baseline->timestamp(i), bounded->timestamp(i));
    EXPECT_DOUBLE_EQ(baseline->column(0).numeric(i),
                     bounded->column(0).numeric(i));
  }
  // The cumulative pushdown counters moved.
  EXPECT_GE(store->scans_total(), 3u);
  EXPECT_GE(store->scan_segments_skipped(), 7u);
  // Unknown or categorical attributes are rejected, not silently ignored.
  ScanOptions bad;
  ScanStats sink;
  bad.bounds.push_back({"nope", 0.0, 1.0});
  EXPECT_FALSE(store->ScanWithOptions(bad, &sink).ok());
  bad.bounds = {{"mode", 0.0, 1.0}};
  EXPECT_FALSE(store->ScanWithOptions(bad, &sink).ok());
}

TEST(TenantStoreTest, MaxRowsCapsOutputAndTruncatedIsExact) {
  auto store = MustOpen(SmallOptions(StoreDir("cap")));
  Fill(store.get(), 0, 25);  // 2 sealed segments + 5 active rows
  ScanOptions opts;
  opts.max_rows = 7;
  ScanStats stats;
  auto r = store->ScanWithOptions(opts, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 7u);
  EXPECT_DOUBLE_EQ(r->timestamp(6), 6.0);
  EXPECT_TRUE(stats.truncated);
  // Exactly as many matches as the cap: NOT truncated — the flag is
  // exact, never a guess.
  opts.max_rows = 25;
  r = store->ScanWithOptions(opts, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 25u);
  EXPECT_FALSE(stats.truncated);
  opts.max_rows = 24;
  r = store->ScanWithOptions(opts, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 24u);
  EXPECT_TRUE(stats.truncated);
}

TEST(TenantStoreTest, UnknownSegmentVersionFailsOpenAndKeepsTheFile) {
  for (uint8_t version : {1, 3}) {
    std::string dir = StoreDir("version" + std::to_string(version));
    std::string oldest;
    {
      auto store = MustOpen(SmallOptions(dir));
      Fill(store.get(), 0, 30);  // 3 sealed segments
      oldest = store->Manifest().front().path;
    }
    std::string bytes = ReadFileOrDie(oldest);
    bytes[4] = static_cast<char>(version);  // little-endian version word
    WriteFileOrDie(oldest, bytes);
    // Not a torn tail: Open refuses, names the file and the version, and
    // neither deletes nor rewrites it.
    auto store = TenantStore::Open(SmallOptions(dir));
    ASSERT_FALSE(store.ok()) << "version " << int{version};
    EXPECT_EQ(store.status().code(), common::StatusCode::kFailedPrecondition);
    EXPECT_NE(store.status().message().find(oldest), std::string::npos)
        << store.status().ToString();
    EXPECT_NE(store.status().message().find("version " +
                                            std::to_string(version)),
              std::string::npos)
        << store.status().ToString();
    EXPECT_EQ(ReadFileOrDie(oldest), bytes);
  }
}

TEST(TenantStoreTest, ZeroRowSegmentFilesAreDroppedAtRecovery) {
  std::string dir = StoreDir("emptyseg");
  {
    auto store = MustOpen(SmallOptions(dir));
    Fill(store.get(), 0, 10);
  }
  // A crash artifact: an intact, CRC-valid segment holding zero rows.
  // Pre-fix it entered the manifest stamped min_ts = max_ts = 0.0,
  // poisoning time pruning and pinning age-based retention.
  std::string path = dir + "/seg-00000099.dbs";
  WriteFileOrDie(path, EncodeSegment(tsdata::Dataset(TestSchema())));
  auto store = MustOpen(SmallOptions(dir));
  EXPECT_EQ(store->recovery().empty_segments_dropped, 1u);
  EXPECT_EQ(store->recovery().segments_recovered, 1u);
  EXPECT_EQ(store->num_segments(), 1u);
  EXPECT_NE(::access(path.c_str(), F_OK), 0);  // deleted from disk
  // Appends resume from the real high-water mark, not a phantom t=0.
  EXPECT_TRUE(store->Append(10.0, Row(10, "even")).ok());
  auto all = store->ScanTail(1000);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->num_rows(), 11u);
}

TEST(TenantStoreTest, AppendsAreNotBlockedByASlowScan) {
  auto store = MustOpen(SmallOptions(StoreDir("noblock")));
  Fill(store.get(), 0, 40);  // 4 sealed segments
  // The scan's first segment read stalls 600 ms. Pre-fix, Scan held the
  // store lock across file I/O + decompression, so these appends queued
  // behind the stall; now they only touch the active segment.
  ScopedSchedule schedule("seg.read=stall@1,ms=600,limit=1");
  std::thread scanner([&store] {
    ScanOptions opts;
    ScanStats stats;
    auto r = store->ScanWithOptions(opts, &stats);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  // Wait until the scanner reaches its stalled read. The schedule counts
  // the stall when it decides on it: after the scan released the store
  // lock, before the sleep.
  auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (common::faultenv::InjectedCount() == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  EXPECT_EQ(common::faultenv::InjectedCount(), 1u)
      << "the scan never reached its stalled read";
  auto t0 = std::chrono::steady_clock::now();
  Fill(store.get(), 40, 45);  // 5 rows: no seal, no disk I/O
  double append_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  scanner.join();
  EXPECT_LT(append_ms, 300.0) << "appends blocked behind a stalled scan";
}

TEST(TenantStoreTest, ScanRetriesCleanlyWhenRetentionDeletesMidScan) {
  auto store = MustOpen(SmallOptions(StoreDir("race")));
  // 10 sealed segments; a serial scan decodes them in batches of 4, so
  // the third batch's files are opened only after the first chunk is out.
  Fill(store.get(), 0, 100);
  ScanOptions opts;
  opts.parallelism = 1;
  Dataset rows(TestSchema());
  bool raced = false;
  ScanVisitor visitor;
  visitor.on_chunk = [&](const Dataset& chunk) {
    if (!raced) {
      // The scan's own hook drives the race: retention now unlinks every
      // snapshotted file but the newest, including ones not yet opened.
      raced = true;
      store->SetRetention(/*retain_bytes=*/1, /*retain_age_sec=*/0.0);
      Fill(store.get(), 100, 110);
    }
    std::vector<size_t> all(chunk.num_rows());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    return rows.AppendRows(chunk, all);
  };
  visitor.on_reset = [&] { rows = Dataset(TestSchema()); };
  ScanStats stats;
  common::Status status = store->ScanVisit(opts, visitor, &stats);
  // The scan retried against the new manifest instead of failing, and
  // returned exactly what a fresh scan of the post-retention history does.
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GE(stats.retries, 1u);
  EXPECT_GE(store->scan_retries(), 1u);
  auto fresh = store->ScanWithOptions(ScanOptions{}, nullptr);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_GT(fresh->num_rows(), 0u);
  ASSERT_EQ(rows.num_rows(), fresh->num_rows());
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    EXPECT_EQ(rows.timestamp(r), fresh->timestamp(r)) << r;
    EXPECT_EQ(rows.column(0).numeric(r), fresh->column(0).numeric(r)) << r;
    EXPECT_EQ(rows.column(1).CategoryName(rows.column(1).code(r)),
              fresh->column(1).CategoryName(fresh->column(1).code(r)))
        << r;
  }
}

TEST(TenantStoreTest, SegmentVanishingOutsideRetentionIsAnIoError) {
  auto store = MustOpen(SmallOptions(StoreDir("vanish")));
  Fill(store.get(), 0, 30);
  // Deleted by hand, not by retention: the generation check cannot
  // explain the hole, so this is real data loss, not a benign race.
  ASSERT_EQ(::unlink(store->Manifest()[0].path.c_str()), 0);
  ScanOptions opts;
  ScanStats stats;
  auto r = store->ScanWithOptions(opts, &stats);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), common::StatusCode::kIoError);
}

}  // namespace
}  // namespace dbsherlock::store
