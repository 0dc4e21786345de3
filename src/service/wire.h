#ifndef DBSHERLOCK_SERVICE_WIRE_H_
#define DBSHERLOCK_SERVICE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/causal_model.h"
#include "store/tenant_store.h"
#include "tsdata/dataset.h"
#include "tsdata/schema.h"

namespace dbsherlock::service {

/// The dbsherlockd wire protocol: newline-delimited requests, one response
/// line per request, over a plain TCP stream. A request is a verb and its
/// space-separated arguments, with APPEND cells as CSV:
///
///     HELLO <tenant> <name:kind[,name:kind...]> [RETAIN <bytes> <age_sec>]
///                                                     kind: num | cat
///     APPEND <tenant> <timestamp> <cell[,cell...]>
///     APPENDSEQ <tenant> <seq> <timestamp> <cell[,cell...]>
///     TEACH <causal-model-json>                       (model_io format)
///     DIAGNOSES <tenant>
///     FLUSH <tenant>
///     QUERY <tenant> <t0> <t1> [WHERE <clause>[;<clause>...]]
///                                                     history rows [t0,t1)
///     DIAGNOSE_RANGE <tenant> <t0> <t1>               diagnose [t0,t1)
///     EXPLAINQ <tenant> <dql-statement>               DQL (DESIGN.md §16)
///     STATS
///     MODELS
///     MODELSYNC <since_seq>                           replication pull
///     HEALTH
///     PING
///     QUIT
///
/// APPENDSEQ carries a client-chosen, strictly-increasing sequence number
/// per tenant. The server remembers the highest seq it applied; a seq at
/// or below that is acknowledged without re-ingesting the row, which makes
/// retries after a dropped connection idempotent (the response may have
/// been lost after the row was applied). One writer per tenant is assumed.
/// Seq state is per server incarnation; across restarts, duplicate rows
/// are dropped by the strictly-increasing-timestamp rule instead.
///
/// HEALTH reports the daemon's degraded-mode state:
///     OK {"state":"ok|degraded|draining","reason":...}
///
/// MODELSYNC serves the shard's durable causal-model corpus to a peer
/// (DESIGN.md §15). `since_seq` is the highest store sequence number the
/// caller has already applied; the response is
///     OK {"last_seq":N,"crc":C,"models":[...]}
/// where `models` holds every model in model_io JSON form when the store
/// has advanced past `since_seq`, or is empty when the peer is already
/// current (last_seq <= since_seq). `crc` is CRC-32 over the serialized
/// `models` array text, so a pull torn by a mid-stream fault is detected
/// and discarded rather than half-applied. Apply is idempotent: receivers
/// skip models whose exact JSON they already hold, so mutual pulls
/// between peers converge instead of echoing models back and forth.
///
/// HELLO's optional RETAIN clause arms the tenant's history store
/// retention (0 = unlimited); QUERY/DIAGNOSE_RANGE read that store, so
/// they answer over regions that have long left the sliding window.
///
/// EXPLAINQ runs one DQL statement (src/query) against the tenant's
/// durable history: `EXPLAIN WHERE <attr> <op> <value|pN> [AND ...]
/// BETWEEN <t0> <t1> [RANK BY confidence|margin] [TOP k]`,
/// `EXPLAIN REGION <t0> <t1> ...`, or `DESCRIBE`. The statement is
/// everything after the tenant field, verbatim. The response is
/// OK <json> — the incident report object (ranked causes with margins,
/// predicates, warnings, sparkline context) including a "markdown"
/// rendering for humans.
///
/// QUERY's optional WHERE trailer pushes attribute bounds into the store
/// scan (zone maps prune whole segments, DESIGN.md §14). Each clause is
/// `<attr>>=<value>` or `<attr><=<value>` over a numeric attribute;
/// clauses are ';'-separated and conjunctive (rows must satisfy all).
///
/// Verb arguments are separated by runs of spaces and/or tabs — every
/// fixed-arity field is tokenized the same way, so "QUERY t0<TAB>1 2"
/// and "QUERY t0 1 2" parse identically. APPEND cell text is exempt:
/// everything after the timestamp is split on ',' only, so categorical
/// cells keep their interior spaces.
///
/// Responses:
///     OK [detail]            request applied
///     RETRY_AFTER <millis>   backpressure: tenant queue full, not acked —
///                            resend the same row after the given delay
///     ERR <Code> <message>   rejected; Code is a StatusCode name. A
///                            message with embedded newlines (e.g. a DQL
///                            caret diagnostic) or leading '"' travels as
///                            one JSON string literal so it survives the
///                            line protocol; clients detect the leading
///                            '"' and decode. Plain messages are unchanged.
///
/// Tenant names are restricted to [A-Za-z0-9_.-], at most 64 bytes, so
/// they embed safely in metric names and file paths.

enum class RequestOp {
  kHello,
  kAppend,
  kTeach,
  kDiagnoses,
  kFlush,
  kQuery,
  kDiagnoseRange,
  kExplainQuery,
  kStats,
  kModels,
  kModelSync,
  kHealth,
  kPing,
  kQuit,
};

/// One parsed request line. APPEND cells arrive as raw text fields that
/// the server coerces against the tenant's schema — the wire layer does
/// not know schemas.
struct Request {
  RequestOp op = RequestOp::kPing;
  std::string tenant;                    // hello/append/diagnoses/flush
  tsdata::Schema schema;                 // hello
  double timestamp = 0.0;                // append
  bool has_client_seq = false;           // APPENDSEQ
  uint64_t client_seq = 0;               // idempotency sequence number
  std::vector<std::string> raw_cells;    // append, one field per cell
  core::CausalModel model;               // teach
  double t0 = 0.0;                       // query/diagnose_range, [t0, t1)
  double t1 = 0.0;
  std::vector<store::AttributeBound> bounds;  // query WHERE clauses
  std::string query_text;                // explainq: the DQL statement
  bool has_retain = false;               // hello RETAIN clause present
  uint64_t retain_bytes = 0;             // 0 = unlimited
  double retain_age_sec = 0.0;           // 0 = unlimited
  uint64_t model_sync_since = 0;         // modelsync: highest applied seq
};

/// Parses one request line (no trailing newline; a trailing '\r' is
/// stripped). Fails with InvalidArgument/ParseError on anything malformed.
common::Result<Request> ParseRequestLine(const std::string& line);

/// True when `name` is a valid tenant name (see header comment).
bool ValidTenantName(const std::string& name);

/// Schema wire form round-trip: "cpu:num,mode:cat".
std::string FormatSchemaSpec(const tsdata::Schema& schema);
common::Result<tsdata::Schema> ParseSchemaSpec(const std::string& spec);

/// Formats one cell for the CSV append path ("%.17g" doubles round-trip).
std::string FormatCell(const tsdata::Cell& cell);

/// Response lines (without the trailing newline).
std::string OkLine(const std::string& detail = "");
std::string RetryAfterLine(int millis);
std::string ErrLine(const common::Status& status);

/// Client-side view of a response line.
struct Response {
  enum class Kind { kOk, kRetryAfter, kErr };
  Kind kind = Kind::kOk;
  std::string detail;         // OK payload (may be empty)
  int retry_after_ms = 0;     // kRetryAfter
  common::Status error;       // kErr, reconstructed with its StatusCode
};

common::Result<Response> ParseResponseLine(const std::string& line);

}  // namespace dbsherlock::service

#endif  // DBSHERLOCK_SERVICE_WIRE_H_
