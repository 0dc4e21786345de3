#include "service/wire.h"

#include <cmath>

#include "common/json.h"
#include "common/strings.h"
#include "core/model_io.h"

namespace dbsherlock::service {

namespace {

using common::Result;
using common::Status;

constexpr size_t kMaxTenantName = 64;

/// Splits "VERB rest" into the verb and the remainder (verb uppercase by
/// convention but matched case-sensitively: the protocol is machine
/// generated).
std::pair<std::string, std::string> SplitVerb(const std::string& line) {
  size_t space = line.find(' ');
  if (space == std::string::npos) return {line, ""};
  return {line.substr(0, space), line.substr(space + 1)};
}

bool IsFieldSpace(char c) { return c == ' ' || c == '\t'; }

/// Pops the next field off `*rest`: skips leading spaces/tabs, takes
/// characters up to the next run, and strips the remainder's leading
/// whitespace too. Every fixed-arity verb argument goes through this, so
/// tabs and repeated spaces parse the same as single spaces — in every
/// field position, not just the last one.
std::string NextField(std::string* rest) {
  size_t begin = 0;
  while (begin < rest->size() && IsFieldSpace((*rest)[begin])) ++begin;
  size_t end = begin;
  while (end < rest->size() && !IsFieldSpace((*rest)[end])) ++end;
  std::string field = rest->substr(begin, end - begin);
  while (end < rest->size() && IsFieldSpace((*rest)[end])) ++end;
  rest->erase(0, end);
  return field;
}

/// Parses QUERY's WHERE trailer: ';'-separated `attr>=v` / `attr<=v`
/// clauses, conjunctive. Whitespace around clauses is ignored.
Status ParseWhereClauses(const std::string& text,
                         std::vector<store::AttributeBound>* bounds) {
  for (const std::string& raw : common::Split(text, ';')) {
    std::string clause(common::Trim(raw));
    if (clause.empty()) continue;
    size_t ge = clause.find(">=");
    size_t le = clause.find("<=");
    size_t op = std::min(ge, le);
    if (op == std::string::npos || op == 0) {
      return Status::InvalidArgument(
          "bad WHERE clause '" + clause + "' (want attr>=v or attr<=v)");
    }
    store::AttributeBound bound;
    bound.attribute = std::string(common::Trim(clause.substr(0, op)));
    auto value =
        common::ParseDouble(std::string(common::Trim(clause.substr(op + 2))));
    if (!value.ok() || std::isnan(*value)) {
      return Status::InvalidArgument("bad WHERE value in '" + clause + "'");
    }
    if (op == ge) {
      bound.lo = *value;
    } else {
      bound.hi = *value;
    }
    bounds->push_back(std::move(bound));
  }
  if (bounds->empty()) {
    return Status::InvalidArgument("WHERE without clauses");
  }
  return Status::OK();
}

}  // namespace

bool ValidTenantName(const std::string& name) {
  if (name.empty() || name.size() > kMaxTenantName) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string FormatSchemaSpec(const tsdata::Schema& schema) {
  std::string out;
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (i > 0) out += ',';
    const tsdata::AttributeSpec& spec = schema.attribute(i);
    out += spec.name;
    out += spec.kind == tsdata::AttributeKind::kNumeric ? ":num" : ":cat";
  }
  return out;
}

Result<tsdata::Schema> ParseSchemaSpec(const std::string& spec) {
  if (spec.empty()) return Status::InvalidArgument("empty schema spec");
  std::vector<tsdata::AttributeSpec> attributes;
  for (const std::string& field : common::Split(spec, ',')) {
    size_t colon = field.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      return Status::InvalidArgument("bad schema field '" + field +
                                     "' (want name:num or name:cat)");
    }
    tsdata::AttributeSpec attr;
    attr.name = field.substr(0, colon);
    std::string kind = field.substr(colon + 1);
    if (kind == "num") {
      attr.kind = tsdata::AttributeKind::kNumeric;
    } else if (kind == "cat") {
      attr.kind = tsdata::AttributeKind::kCategorical;
    } else {
      return Status::InvalidArgument("unknown attribute kind '" + kind + "'");
    }
    attributes.push_back(std::move(attr));
  }
  // Schema's constructor asserts on duplicates; build through AddAttribute
  // to surface them as a Status instead.
  tsdata::Schema schema;
  for (tsdata::AttributeSpec& attr : attributes) {
    DBSHERLOCK_RETURN_NOT_OK(schema.AddAttribute(std::move(attr)));
  }
  return schema;
}

std::string FormatCell(const tsdata::Cell& cell) {
  if (const double* v = std::get_if<double>(&cell)) {
    return common::StrFormat("%.17g", *v);
  }
  return std::get<std::string>(cell);
}

Result<Request> ParseRequestLine(const std::string& line_in) {
  std::string line = line_in;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line.empty()) return Status::InvalidArgument("empty request line");

  std::string rest = line;
  std::string verb = NextField(&rest);
  Request request;
  if (verb == "PING") {
    request.op = RequestOp::kPing;
    return request;
  }
  if (verb == "QUIT") {
    request.op = RequestOp::kQuit;
    return request;
  }
  if (verb == "STATS") {
    request.op = RequestOp::kStats;
    return request;
  }
  if (verb == "MODELS") {
    request.op = RequestOp::kModels;
    return request;
  }
  if (verb == "MODELSYNC") {
    request.op = RequestOp::kModelSync;
    std::string since_text = NextField(&rest);
    auto since = common::ParseInt64(since_text);
    if (!since.ok() || *since < 0) {
      return Status::InvalidArgument("bad MODELSYNC since_seq: " +
                                     since_text);
    }
    if (!rest.empty()) {
      return Status::InvalidArgument("MODELSYNC takes only a sequence "
                                     "number");
    }
    request.model_sync_since = static_cast<uint64_t>(*since);
    return request;
  }
  if (verb == "HEALTH") {
    request.op = RequestOp::kHealth;
    return request;
  }
  if (verb == "DIAGNOSES" || verb == "FLUSH") {
    request.op =
        verb == "FLUSH" ? RequestOp::kFlush : RequestOp::kDiagnoses;
    request.tenant = NextField(&rest);
    if (!ValidTenantName(request.tenant)) {
      return Status::InvalidArgument("invalid tenant name: " +
                                     request.tenant);
    }
    if (!rest.empty()) {
      return Status::InvalidArgument(verb + " takes only a tenant name");
    }
    return request;
  }
  if (verb == "HELLO") {
    request.op = RequestOp::kHello;
    request.tenant = NextField(&rest);
    if (!ValidTenantName(request.tenant)) {
      return Status::InvalidArgument("invalid tenant name: " +
                                     request.tenant);
    }
    std::string spec = NextField(&rest);
    auto schema = ParseSchemaSpec(spec);
    if (!schema.ok()) return schema.status();
    request.schema = std::move(*schema);
    if (!rest.empty()) {
      std::string keyword = NextField(&rest);
      std::string bytes_text = NextField(&rest);
      std::string age_text = NextField(&rest);
      if (keyword != "RETAIN" || bytes_text.empty() || age_text.empty() ||
          !rest.empty()) {
        return Status::InvalidArgument(
            "HELLO trailer must be 'RETAIN <bytes> <age_sec>'");
      }
      auto bytes = common::ParseInt64(bytes_text);
      if (!bytes.ok() || *bytes < 0) {
        return Status::InvalidArgument("bad RETAIN bytes: " + bytes_text);
      }
      auto age = common::ParseDouble(age_text);
      if (!age.ok() || *age < 0) {
        return Status::InvalidArgument("bad RETAIN age_sec: " + age_text);
      }
      request.has_retain = true;
      request.retain_bytes = static_cast<uint64_t>(*bytes);
      request.retain_age_sec = *age;
    }
    return request;
  }
  if (verb == "QUERY" || verb == "DIAGNOSE_RANGE") {
    request.op = verb == "QUERY" ? RequestOp::kQuery
                                 : RequestOp::kDiagnoseRange;
    request.tenant = NextField(&rest);
    if (!ValidTenantName(request.tenant)) {
      return Status::InvalidArgument("invalid tenant name: " +
                                     request.tenant);
    }
    auto t0 = common::ParseDouble(NextField(&rest));
    if (!t0.ok()) return t0.status();
    auto t1 = common::ParseDouble(NextField(&rest));
    if (!t1.ok()) return t1.status();
    if (!(*t0 < *t1)) {
      return Status::InvalidArgument(
          common::StrFormat("%s needs t0 < t1", verb.c_str()));
    }
    request.t0 = *t0;
    request.t1 = *t1;
    if (!rest.empty()) {
      std::string keyword = NextField(&rest);
      if (verb != "QUERY" || keyword != "WHERE") {
        return Status::InvalidArgument(verb + " trailer must be a QUERY "
                                       "WHERE clause");
      }
      DBSHERLOCK_RETURN_NOT_OK(ParseWhereClauses(rest, &request.bounds));
    }
    return request;
  }
  if (verb == "EXPLAINQ") {
    request.op = RequestOp::kExplainQuery;
    request.tenant = NextField(&rest);
    if (!ValidTenantName(request.tenant)) {
      return Status::InvalidArgument("invalid tenant name: " +
                                     request.tenant);
    }
    // The DQL statement is everything after the tenant, verbatim — its
    // own lexer handles whitespace, so no field tokenization here.
    if (common::Trim(rest).empty()) {
      return Status::InvalidArgument("EXPLAINQ without a query");
    }
    request.query_text = rest;
    return request;
  }
  if (verb == "APPEND" || verb == "APPENDSEQ") {
    request.op = RequestOp::kAppend;
    request.tenant = NextField(&rest);
    if (!ValidTenantName(request.tenant)) {
      return Status::InvalidArgument("invalid tenant name: " +
                                     request.tenant);
    }
    if (verb == "APPENDSEQ") {
      std::string seq_text = NextField(&rest);
      auto seq = common::ParseInt64(seq_text);
      if (!seq.ok() || *seq < 0) {
        return Status::InvalidArgument("bad APPENDSEQ seq: " + seq_text);
      }
      request.has_client_seq = true;
      request.client_seq = static_cast<uint64_t>(*seq);
    }
    auto ts = common::ParseDouble(NextField(&rest));
    if (!ts.ok()) return ts.status();
    request.timestamp = *ts;
    // The cell text is NOT field-tokenized: categorical cells may contain
    // spaces, so everything after the timestamp splits on ',' alone.
    if (rest.empty()) {
      return Status::InvalidArgument("APPEND without cells");
    }
    request.raw_cells = common::Split(rest, ',');
    return request;
  }
  if (verb == "TEACH") {
    request.op = RequestOp::kTeach;
    auto json = common::ParseJson(rest);
    if (!json.ok()) return json.status();
    auto model = core::CausalModelFromJson(*json);
    if (!model.ok()) return model.status();
    request.model = std::move(*model);
    return request;
  }
  return Status::InvalidArgument("unknown verb: " + verb);
}

std::string OkLine(const std::string& detail) {
  return detail.empty() ? "OK" : "OK " + detail;
}

std::string RetryAfterLine(int millis) {
  return common::StrFormat("RETRY_AFTER %d", millis);
}

std::string ErrLine(const Status& status) {
  // Responses are single lines. A message with embedded newlines (DQL
  // caret diagnostics cite the query across three lines) — or one that
  // starts with '"' and would be mistaken for the encoded form — travels
  // as a JSON string literal; everything else is passed through verbatim,
  // keeping the common case byte-identical to older servers.
  const std::string& message = status.message();
  bool needs_encoding = !message.empty() && message.front() == '"';
  for (char c : message) {
    if (c == '\n' || c == '\r') {
      needs_encoding = true;
      break;
    }
  }
  std::string body =
      needs_encoding ? common::JsonValue(message).Dump() : message;
  return std::string("ERR ") + common::StatusCodeToString(status.code()) +
         " " + body;
}

Result<Response> ParseResponseLine(const std::string& line_in) {
  std::string line = line_in;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  auto [verb, rest] = SplitVerb(line);
  Response response;
  if (verb == "OK") {
    response.kind = Response::Kind::kOk;
    response.detail = rest;
    return response;
  }
  if (verb == "RETRY_AFTER") {
    response.kind = Response::Kind::kRetryAfter;
    auto millis = common::ParseInt64(common::Trim(rest));
    if (!millis.ok() || *millis < 0) {
      return Status::ParseError("bad RETRY_AFTER delay: " + rest);
    }
    response.retry_after_ms = static_cast<int>(*millis);
    return response;
  }
  if (verb == "ERR") {
    response.kind = Response::Kind::kErr;
    auto [code_name, message] = SplitVerb(rest);
    // Reconstruct the StatusCode from its stable name; unknown names (a
    // newer server) degrade to kInternal rather than failing the parse.
    common::StatusCode code = common::StatusCode::kInternal;
    for (int c = 0; c <= static_cast<int>(common::StatusCode::kInternal);
         ++c) {
      auto candidate = static_cast<common::StatusCode>(c);
      if (code_name == common::StatusCodeToString(candidate)) {
        code = candidate;
        break;
      }
    }
    // A leading '"' marks a JSON-encoded message (multi-line diagnostics);
    // decode it back. A parse failure means the quote was literal text
    // from an old server — keep the raw message rather than failing.
    if (!message.empty() && message.front() == '"') {
      auto decoded = common::ParseJson(message);
      if (decoded.ok() && decoded->is_string()) {
        message = decoded->as_string();
      }
    }
    response.error = common::Status(code, message);
    return response;
  }
  return Status::ParseError("unrecognized response line: " + line);
}

}  // namespace dbsherlock::service
