// The dbsherlockd wire protocol: request/response line round-trips, the
// schema spec format, tenant-name validation, and a byte-mutation fuzz
// loop — a network-facing parser must never crash on hostile input.

#include "service/wire.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"

namespace dbsherlock::service {
namespace {

tsdata::Schema WireSchema() {
  return tsdata::Schema({{"cpu", tsdata::AttributeKind::kNumeric},
                         {"mode", tsdata::AttributeKind::kCategorical}});
}

TEST(WireTest, TenantNamesAreRestricted) {
  EXPECT_TRUE(ValidTenantName("t0"));
  EXPECT_TRUE(ValidTenantName("prod.shard-3_replica"));
  EXPECT_FALSE(ValidTenantName(""));
  EXPECT_FALSE(ValidTenantName("has space"));
  EXPECT_FALSE(ValidTenantName("slash/y"));
  EXPECT_FALSE(ValidTenantName("newline\n"));
  EXPECT_FALSE(ValidTenantName(std::string(65, 'a')));  // > 64 bytes
  EXPECT_TRUE(ValidTenantName(std::string(64, 'a')));
}

TEST(WireTest, SchemaSpecRoundTrips) {
  tsdata::Schema schema = WireSchema();
  std::string spec = FormatSchemaSpec(schema);
  EXPECT_EQ(spec, "cpu:num,mode:cat");
  auto parsed = ParseSchemaSpec(spec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(*parsed == schema);

  EXPECT_FALSE(ParseSchemaSpec("").ok());
  EXPECT_FALSE(ParseSchemaSpec("cpu").ok());
  EXPECT_FALSE(ParseSchemaSpec("cpu:float").ok());
  EXPECT_FALSE(ParseSchemaSpec("cpu:num,cpu:num").ok());  // duplicate
}

TEST(WireTest, ParsesHello) {
  auto request = ParseRequestLine("HELLO t0 cpu:num,mode:cat");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->op, RequestOp::kHello);
  EXPECT_EQ(request->tenant, "t0");
  EXPECT_TRUE(request->schema == WireSchema());
}

TEST(WireTest, ParsesCsvAppend) {
  auto request = ParseRequestLine("APPEND t0 12.5 1.5,idle");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->op, RequestOp::kAppend);
  EXPECT_EQ(request->tenant, "t0");
  EXPECT_EQ(request->timestamp, 12.5);
  ASSERT_EQ(request->raw_cells.size(), 2u);
  EXPECT_EQ(request->raw_cells[0], "1.5");
  EXPECT_EQ(request->raw_cells[1], "idle");
}

TEST(WireTest, ParsesTeach) {
  auto request = ParseRequestLine(
      R"(TEACH {"cause":"Lock Contention","predicates":)"
      R"([{"attribute":"lock_wait","type":"gt","low":5}]})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->op, RequestOp::kTeach);
  EXPECT_EQ(request->model.cause, "Lock Contention");
  ASSERT_EQ(request->model.predicates.size(), 1u);
  EXPECT_EQ(request->model.predicates[0].attribute, "lock_wait");
}

TEST(WireTest, ParsesBareVerbs) {
  for (const auto& [line, op] :
       std::vector<std::pair<std::string, RequestOp>>{
           {"DIAGNOSES t0", RequestOp::kDiagnoses},
           {"FLUSH t0", RequestOp::kFlush},
           {"STATS", RequestOp::kStats},
           {"MODELS", RequestOp::kModels},
           {"PING", RequestOp::kPing},
           {"QUIT", RequestOp::kQuit},
           {"PING\r", RequestOp::kPing},  // trailing CR stripped
       }) {
    auto request = ParseRequestLine(line);
    ASSERT_TRUE(request.ok()) << line << ": " << request.status().ToString();
    EXPECT_EQ(request->op, op) << line;
  }
}

TEST(WireTest, ParsesQueryAndDiagnoseRange) {
  auto query = ParseRequestLine("QUERY t0 10.5 99");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->op, RequestOp::kQuery);
  EXPECT_EQ(query->tenant, "t0");
  EXPECT_DOUBLE_EQ(query->t0, 10.5);
  EXPECT_DOUBLE_EQ(query->t1, 99.0);

  auto range = ParseRequestLine("DIAGNOSE_RANGE prod -5 12.25\r");
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  EXPECT_EQ(range->op, RequestOp::kDiagnoseRange);
  EXPECT_EQ(range->tenant, "prod");
  EXPECT_DOUBLE_EQ(range->t0, -5.0);
  EXPECT_DOUBLE_EQ(range->t1, 12.25);
}

TEST(WireTest, RejectsBadQueryRanges) {
  for (const std::string& line : {
           std::string("QUERY t0"),             // missing range
           std::string("QUERY t0 1"),           // missing t1
           std::string("QUERY t0 1 2 3"),       // trailing junk
           std::string("QUERY t0 x 2"),         // bad t0
           std::string("QUERY t0 1 y"),         // bad t1
           std::string("QUERY t0 5 5"),         // empty range
           std::string("QUERY t0 9 2"),         // inverted range
           std::string("QUERY bad!name 1 2"),   // invalid tenant
           std::string("DIAGNOSE_RANGE t0 5 5"),
           std::string("DIAGNOSE_RANGE t0 9 2"),
       }) {
    EXPECT_FALSE(ParseRequestLine(line).ok()) << line;
  }
}

TEST(WireTest, ParsesHelloRetainTrailer) {
  auto request =
      ParseRequestLine("HELLO t0 cpu:num,mode:cat RETAIN 1048576 3600");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->op, RequestOp::kHello);
  EXPECT_TRUE(request->schema == WireSchema());
  EXPECT_TRUE(request->has_retain);
  EXPECT_EQ(request->retain_bytes, 1048576u);
  EXPECT_DOUBLE_EQ(request->retain_age_sec, 3600.0);

  auto plain = ParseRequestLine("HELLO t0 cpu:num,mode:cat");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->has_retain);
}

TEST(WireTest, RejectsBadRetainTrailer) {
  for (const std::string& line : {
           std::string("HELLO t0 cpu:num RETAIN"),          // missing args
           std::string("HELLO t0 cpu:num RETAIN 10"),       // missing age
           std::string("HELLO t0 cpu:num RETAIN 10 1 2"),   // extra
           std::string("HELLO t0 cpu:num RETAIN -1 0"),     // negative
           std::string("HELLO t0 cpu:num RETAIN 10 -2"),    // negative age
           std::string("HELLO t0 cpu:num RETAIN x 0"),      // garbage
           std::string("HELLO t0 cpu:num KEEP 10 0"),       // unknown word
       }) {
    EXPECT_FALSE(ParseRequestLine(line).ok()) << line;
  }
}

TEST(WireTest, ParsesAppendSeqForIdempotentRetries) {
  auto request = ParseRequestLine("APPENDSEQ t0 42 12.5 1.5,idle");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->op, RequestOp::kAppend);
  EXPECT_EQ(request->tenant, "t0");
  EXPECT_TRUE(request->has_client_seq);
  EXPECT_EQ(request->client_seq, 42u);
  EXPECT_EQ(request->timestamp, 12.5);
  ASSERT_EQ(request->raw_cells.size(), 2u);

  // Plain APPEND carries no sequence: the server cannot dedupe it.
  auto plain = ParseRequestLine("APPEND t0 12.5 1.5,idle");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->has_client_seq);
}

TEST(WireTest, RejectsBadAppendSeq) {
  for (const std::string& line : {
           std::string("APPENDSEQ t0 notanum 12.5 1.5,idle"),
           std::string("APPENDSEQ t0 -3 12.5 1.5,idle"),
           std::string("APPENDSEQ t0 42 12.5"),  // seq ate the cells
       }) {
    EXPECT_FALSE(ParseRequestLine(line).ok()) << line;
  }
}

TEST(WireTest, ParsesHealth) {
  auto request = ParseRequestLine("HEALTH");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->op, RequestOp::kHealth);
  // JSON is not a request encoding.
  EXPECT_FALSE(ParseRequestLine(R"({"op":"health"})").ok());
}

TEST(WireTest, RejectsMalformedRequests) {
  for (const std::string& line : {
           std::string(""),
           std::string("BOGUS"),
           std::string("HELLO"),                       // missing args
           std::string("HELLO bad!name cpu:num"),      // invalid name
           std::string("HELLO t0 cpu:float"),          // bad kind
           std::string("APPEND t0 nan_nope 1"),        // bad timestamp
           std::string("APPEND t0"),                   // missing cells
           std::string("TEACH not-json"),
           // JSON is not a request encoding, not even a complete append.
           std::string(R"({"op":"append","tenant":"t0","ts":1,"cells":[1]})"),
           std::string("{oops"),
           std::string("DIAGNOSES"),                   // missing tenant
       }) {
    EXPECT_FALSE(ParseRequestLine(line).ok()) << line;
  }
}

TEST(WireTest, ResponseLinesRoundTrip) {
  auto ok = ParseResponseLine(OkLine());
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->kind, Response::Kind::kOk);
  EXPECT_TRUE(ok->detail.empty());

  auto seq = ParseResponseLine(OkLine("41"));
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq->detail, "41");

  auto retry = ParseResponseLine(RetryAfterLine(20));
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->kind, Response::Kind::kRetryAfter);
  EXPECT_EQ(retry->retry_after_ms, 20);

  auto err = ParseResponseLine(
      ErrLine(common::Status::NotFound("tenant 'x'\nre-HELLO")));
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->kind, Response::Kind::kErr);
  EXPECT_EQ(err->error.code(), common::StatusCode::kNotFound);
  // The multi-line message survives intact (JSON-string encoded on the
  // wire so the response still occupies one line).
  EXPECT_EQ(err->error.message(), "tenant 'x'\nre-HELLO");
}

/// Regression: ErrLine used to flatten '\n' and '\r' to spaces, which
/// destroyed multi-line payloads like DQL caret diagnostics; messages
/// with colons and interior quotes were also at the mercy of ad-hoc
/// splitting. Every such message must now round-trip byte-exact, while
/// plain single-line messages stay verbatim on the wire (old clients
/// keep working).
TEST(WireTest, ErrDetailRoundTripsHostileMessages) {
  const std::string hostile[] = {
      "syntax error: expected BETWEEN after the WHERE conditions\n"
      "  EXPLAIN WHERE cpu > 1 RANK BY margin\n"
      "                        ^~~~",
      "a: b: c: nested: colons",
      "\"starts with a quote\"",
      "tab\there and \r carriage return",
      "trailing newline\n",
      "unicode ▁▂▃ sparkline and caret ^",
  };
  for (const std::string& message : hostile) {
    std::string line = ErrLine(common::Status::InvalidArgument(message));
    EXPECT_EQ(line.find('\n'), std::string::npos) << "not one line";
    EXPECT_EQ(line.find('\r'), std::string::npos) << "not one line";
    auto response = ParseResponseLine(line);
    ASSERT_TRUE(response.ok()) << line;
    EXPECT_EQ(response->kind, Response::Kind::kErr);
    EXPECT_EQ(response->error.code(), common::StatusCode::kInvalidArgument);
    EXPECT_EQ(response->error.message(), message) << line;
  }
  // Plain messages are not JSON-wrapped — byte-compatible with older
  // clients that read the tail verbatim.
  std::string plain = ErrLine(common::Status::NotFound("no tenant 't0'"));
  EXPECT_EQ(plain, "ERR NotFound no tenant 't0'");
}

TEST(WireTest, ParsesExplainQueryVerbatim) {
  auto request = ParseRequestLine(
      "EXPLAINQ t0 EXPLAIN WHERE latency > p99 AND cpu <= 80 "
      "BETWEEN 100 200 RANK BY confidence TOP 3");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->op, RequestOp::kExplainQuery);
  EXPECT_EQ(request->tenant, "t0");
  // The statement is everything after the tenant, verbatim — the DQL
  // parser owns its own tokenization (and its spans must line up).
  EXPECT_EQ(request->query_text,
            "EXPLAIN WHERE latency > p99 AND cpu <= 80 BETWEEN 100 200 "
            "RANK BY confidence TOP 3");

  EXPECT_FALSE(ParseRequestLine("EXPLAINQ t0").ok());        // no query
  EXPECT_FALSE(ParseRequestLine("EXPLAINQ t0   ").ok());     // blank query
  EXPECT_FALSE(ParseRequestLine("EXPLAINQ bad/name DESCRIBE").ok());
}

TEST(WireTest, RejectsMalformedResponses) {
  for (const std::string& line :
       {std::string(""), std::string("WAT"), std::string("RETRY_AFTER"),
        std::string("RETRY_AFTER soon")}) {
    EXPECT_FALSE(ParseResponseLine(line).ok()) << line;
  }
}

TEST(WireTest, UnknownErrCodeStillYieldsAFailure) {
  // The client is lenient about ERR payloads it does not recognize (a
  // newer server may grow codes): the response parses, but the error it
  // carries is never mistaken for success.
  for (const std::string& line :
       {std::string("ERR"), std::string("ERR Nonsense message")}) {
    auto response = ParseResponseLine(line);
    ASSERT_TRUE(response.ok()) << line;
    EXPECT_EQ(response->kind, Response::Kind::kErr) << line;
    EXPECT_FALSE(response->error.ok()) << line;
  }
}

/// Regression (field trimming): QUERY/DIAGNOSE_RANGE used to trim t1 but
/// not t0, so a tab (or doubled space) before t0 failed the parse. Every
/// fixed-arity field of every verb now tokenizes on runs of spaces and
/// tabs, with or without a trailing CRLF.
TEST(WireTest, FieldsTolerateTabsAndRepeatedSpacesEverywhere) {
  const std::vector<std::pair<std::string, RequestOp>> lines = {
      {"QUERY t0\t10.5 99", RequestOp::kQuery},          // tab before t0
      {"QUERY t0  10.5  99", RequestOp::kQuery},         // doubled spaces
      {"QUERY\t\tt0 10.5\t99\r", RequestOp::kQuery},     // verb + t1 + CR
      {"DIAGNOSE_RANGE  t0\t10.5   99", RequestOp::kDiagnoseRange},
      {"DIAGNOSE_RANGE t0 10.5\t99\r", RequestOp::kDiagnoseRange},
      {"HELLO\tt0\tcpu:num,mode:cat", RequestOp::kHello},
      {"HELLO t0  cpu:num,mode:cat\tRETAIN  10\t20", RequestOp::kHello},
      {"APPEND\tt0  12.5\t1.5,idle", RequestOp::kAppend},
      {"APPENDSEQ t0\t42  12.5 1.5,idle\r", RequestOp::kAppend},
      {"DIAGNOSES\tt0", RequestOp::kDiagnoses},
      {"FLUSH  t0\r", RequestOp::kFlush},
  };
  for (const auto& [line, op] : lines) {
    auto request = ParseRequestLine(line);
    ASSERT_TRUE(request.ok()) << line << ": " << request.status().ToString();
    EXPECT_EQ(request->op, op) << line;
    if (op == RequestOp::kQuery || op == RequestOp::kDiagnoseRange) {
      EXPECT_DOUBLE_EQ(request->t0, 10.5) << line;
      EXPECT_DOUBLE_EQ(request->t1, 99.0) << line;
    }
  }
}

TEST(WireTest, ParsesQueryWhereBounds) {
  auto request =
      ParseRequestLine("QUERY t0 1 9 WHERE cpu>=1.5; iops<=40 ;cpu<=9");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  ASSERT_EQ(request->bounds.size(), 3u);
  EXPECT_EQ(request->bounds[0].attribute, "cpu");
  EXPECT_DOUBLE_EQ(request->bounds[0].lo, 1.5);
  EXPECT_TRUE(std::isinf(request->bounds[0].hi));
  EXPECT_EQ(request->bounds[1].attribute, "iops");
  EXPECT_TRUE(std::isinf(request->bounds[1].lo));
  EXPECT_DOUBLE_EQ(request->bounds[1].hi, 40.0);
  EXPECT_EQ(request->bounds[2].attribute, "cpu");
  EXPECT_DOUBLE_EQ(request->bounds[2].hi, 9.0);

  // Negative values parse (the '-' must not be mistaken for an operator).
  auto negative = ParseRequestLine("QUERY t0 1 9 WHERE lat>=-2.5");
  ASSERT_TRUE(negative.ok()) << negative.status().ToString();
  ASSERT_EQ(negative->bounds.size(), 1u);
  EXPECT_DOUBLE_EQ(negative->bounds[0].lo, -2.5);

  // Empty clauses (a trailing ';') are tolerated, not operator errors.
  auto trailing = ParseRequestLine("QUERY t0 1 9 WHERE cpu>=1;;");
  ASSERT_TRUE(trailing.ok()) << trailing.status().ToString();
  EXPECT_EQ(trailing->bounds.size(), 1u);

  // No trailer: no bounds.
  auto plain = ParseRequestLine("QUERY t0 1 9");
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->bounds.empty());
}

TEST(WireTest, RejectsBadWhereTrailers) {
  for (const std::string& line : {
           std::string("QUERY t0 1 9 WHERE"),             // no clauses
           std::string("QUERY t0 1 9 WHERE cpu=5"),       // bad operator
           std::string("QUERY t0 1 9 WHERE >=5"),         // missing attr
           std::string("QUERY t0 1 9 WHERE cpu>=nan"),    // NaN bound
           std::string("QUERY t0 1 9 WHERE cpu>=x"),      // non-numeric
           std::string("QUERY t0 1 9 WHERE ;;"),          // only empties
           std::string("QUERY t0 1 9 HAVING cpu>=1"),     // unknown keyword
           // DIAGNOSE_RANGE takes no trailer at all: its explanation must
           // cover the whole window, never a silently-filtered subset.
           std::string("DIAGNOSE_RANGE t0 1 9 WHERE cpu>=1"),
       }) {
    EXPECT_FALSE(ParseRequestLine(line).ok()) << line;
  }
}

/// Regression: kResourceExhausted (the DIAGNOSE_RANGE row-cap refusal)
/// must survive an ERR round-trip with its code intact — a client that
/// sees kInternal would retry a request that can never succeed.
TEST(WireTest, ResourceExhaustedErrRoundTripsItsCode) {
  auto response = ParseResponseLine(
      ErrLine(common::Status::ResourceExhausted("window has 9e9 rows")));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->kind, Response::Kind::kErr);
  EXPECT_EQ(response->error.code(), common::StatusCode::kResourceExhausted);
  EXPECT_NE(response->error.message().find("9e9 rows"), std::string::npos);
}

/// Fuzz: random byte mutations of valid request/response lines must yield
/// a parsed value or a clean error Status — never a crash or sanitizer
/// report (this runs under the ASan/UBSan and TSan sweeps).
TEST(WireTest, ByteMutationFuzzNeverCrashes) {
  const std::vector<std::string> bases = {
      "HELLO tenant0 cpu:num,mode:cat,iops:num",
      "APPEND tenant0 1754.25 0.5,idle,120",
      "APPENDSEQ tenant0 7 1754.25 0.5,idle,120",
      R"(TEACH {"cause":"x","predicates":[{"attribute":"a","type":"gt",)"
      R"("low":5}]})",
      "OK 12",
      "RETRY_AFTER 20",
      "ERR NotFound tenant 'x' unknown",
  };
  common::Pcg32 fuzz_rng(0xd00d, 11);
  size_t parsed_count = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::string mutated = bases[iter % bases.size()];
    size_t num_edits = 1 + fuzz_rng.NextBounded(4);
    for (size_t e = 0; e < num_edits && !mutated.empty(); ++e) {
      size_t pos =
          fuzz_rng.NextBounded(static_cast<uint32_t>(mutated.size()));
      switch (fuzz_rng.NextBounded(3)) {
        case 0:
          mutated[pos] = static_cast<char>(fuzz_rng.NextBounded(256));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        case 2:
          mutated.insert(pos, 1, mutated[pos]);
          break;
      }
    }
    if (ParseRequestLine(mutated).ok()) ++parsed_count;
    if (ParseResponseLine(mutated).ok()) ++parsed_count;
  }
  // Some mutations must survive (cell tweaks etc.), otherwise the fuzz
  // only exercises the error path.
  EXPECT_GT(parsed_count, 0u);
}

}  // namespace
}  // namespace dbsherlock::service
