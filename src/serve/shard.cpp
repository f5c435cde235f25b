#include "serve/shard.hpp"

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <sstream>

namespace mgrts::serve {

namespace {

// ------------------------------------------------------- header helpers
//
// Strict never-guess parsing, like client.cpp's response parser: a header
// that is absent or unparsable is a ProtocolError naming the key, never a
// default silently filled in.

std::string require(const Message& message, const std::string& key) {
  const auto value = message.get(key);
  if (!value.has_value()) {
    throw ProtocolError("missing header '" + key + "' on '" + message.kind +
                        "'");
  }
  return *value;
}

std::int64_t require_int(const Message& message, const std::string& key) {
  require(message, key);          // presence, with the right error text
  return *message.get_int(key);   // format errors from get_int
}

std::int32_t require_i32(const Message& message, const std::string& key) {
  const std::int64_t value = require_int(message, key);
  if (value < std::numeric_limits<std::int32_t>::min() ||
      value > std::numeric_limits<std::int32_t>::max()) {
    throw ProtocolError("header '" + key + "' is out of int32 range: " +
                        std::to_string(value));
  }
  return static_cast<std::int32_t>(value);
}

std::uint64_t require_u64(const Message& message, const std::string& key) {
  const std::string text = require(message, key);
  try {
    std::size_t used = 0;
    const std::uint64_t value = std::stoull(text, &used);
    if (used != text.size()) throw std::invalid_argument("trailing");
    return value;
  } catch (const std::exception&) {
    throw ProtocolError("header '" + key +
                        "' is not an unsigned integer: '" + text + "'");
  }
}

bool require_bool(const Message& message, const std::string& key) {
  const std::string text = require(message, key);
  if (text == "0") return false;
  if (text == "1") return true;
  throw ProtocolError("header '" + key + "' is not 0/1: '" + text + "'");
}

double parse_double(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || text.empty()) {
    throw ProtocolError(what + " is not a number: '" + text + "'");
  }
  return value;
}

std::string format_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// ------------------------------------------------ generator enum strings

const char* rule_name(gen::ProcessorRule rule) {
  switch (rule) {
    case gen::ProcessorRule::kFixed: return "fixed";
    case gen::ProcessorRule::kUniform: return "uniform";
    case gen::ProcessorRule::kMinCapacity: return "min-capacity";
  }
  return "fixed";
}

gen::ProcessorRule rule_from(const std::string& text) {
  for (const gen::ProcessorRule rule :
       {gen::ProcessorRule::kFixed, gen::ProcessorRule::kUniform,
        gen::ProcessorRule::kMinCapacity}) {
    if (text == rule_name(rule)) return rule;
  }
  throw ProtocolError("unknown gen-rule: '" + text + "'");
}

const char* order_name(gen::ParamOrder order) {
  switch (order) {
    case gen::ParamOrder::kDFirst: return "d-first";
    case gen::ParamOrder::kCdt: return "cdt";
    case gen::ParamOrder::kTdc: return "tdc";
  }
  return "d-first";
}

gen::ParamOrder order_from(const std::string& text) {
  for (const gen::ParamOrder order :
       {gen::ParamOrder::kDFirst, gen::ParamOrder::kCdt,
        gen::ParamOrder::kTdc}) {
    if (text == order_name(order)) return order;
  }
  throw ProtocolError("unknown gen-order: '" + text + "'");
}

// --------------------------------------------------- run-record body text
//
// One RunRecord serializes to a "run" line (verdict, flags, cause, nodes,
// seconds, decided-by) followed by an optional "ng" line (the 9
// NogoodStats counters in core::kNogoodCounters order, emitted only when
// any is nonzero) and one "prop" line per propagator row.  seconds travel
// as %.17g so the double round-trips bit-exactly — record identity across
// the wire is the whole point of this layer.

void append_run(std::string& body, const exp::RunRecord& run) {
  body += "run ";
  body += core::to_string(run.verdict);
  body += run.complete ? " 1 " : " 0 ";
  body += run.witness_ok ? "1 " : "0 ";
  body += core::to_string(run.failure_cause);
  body += ' ';
  body += std::to_string(run.nodes);
  body += ' ';
  body += format_double(run.seconds);
  body += ' ';
  // decided-by is the line remainder (labels may grow spaces); "-" marks
  // the empty provenance so the field count stays fixed.
  body += run.decided_by.empty() ? "-" : run.decided_by;
  body += '\n';

  if (run.nogoods != core::NogoodStats{}) {
    body += "ng";
    for (const auto counter : core::kNogoodCounters) {
      body += ' ';
      body += std::to_string(run.nogoods.*counter);
    }
    body += '\n';
  }
  for (const csp::PropagatorProfile& prop : run.propagators) {
    body += "prop ";
    body += std::to_string(prop.wakes);
    body += ' ';
    body += std::to_string(prop.runs);
    body += ' ';
    body += std::to_string(prop.prunes);
    body += ' ';
    body += format_double(prop.seconds);
    body += ' ';
    body += prop.name;  // name last: propagator labels contain no newline
    body += '\n';
  }
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

std::int64_t parse_i64(const std::string& text, const char* what) {
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(text, &used);
    if (used != text.size()) throw std::invalid_argument("trailing");
    return value;
  } catch (const std::exception&) {
    throw ProtocolError(std::string(what) + " is not an integer: '" + text +
                        "'");
  }
}

}  // namespace

Message encode_shard_request(const ShardRequest& request) {
  Message message;
  message.kind = "shard";
  message.set("shard-id", request.shard_id);
  message.set("seed", std::to_string(request.seed));
  message.set("time-limit-ms", request.time_limit_ms);
  message.set("max-nodes", request.max_nodes);
  message.set("max-variables", request.max_variables);
  message.set("max-attempts", static_cast<std::int64_t>(request.max_attempts));
  std::string specs;
  for (const std::string& name : request.specs) {
    if (!specs.empty()) specs += ',';
    specs += name;
  }
  message.set("specs", specs);
  message.set("gen-tasks", static_cast<std::int64_t>(request.generator.tasks));
  message.set("gen-processors",
              static_cast<std::int64_t>(request.generator.processors));
  message.set("gen-rule", rule_name(request.generator.rule));
  message.set("gen-tmax", static_cast<std::int64_t>(request.generator.t_max));
  message.set("gen-order", order_name(request.generator.order));
  message.set("gen-offsets", request.generator.with_offsets ? "1" : "0");
  std::string body;
  for (const std::uint64_t index : request.indices) {
    if (!body.empty()) body += ' ';
    body += std::to_string(index);
  }
  message.body = std::move(body);
  return message;
}

ShardRequest parse_shard_request(const Message& message) {
  if (message.kind != "shard") {
    throw ProtocolError("expected a 'shard' request, got '" + message.kind +
                        "'");
  }
  ShardRequest request;
  request.shard_id = require(message, "shard-id");
  request.seed = require_u64(message, "seed");
  request.time_limit_ms = require_int(message, "time-limit-ms");
  request.max_nodes = require_int(message, "max-nodes");
  request.max_variables = require_int(message, "max-variables");
  request.max_attempts = require_i32(message, "max-attempts");
  if (request.max_attempts < 1 || request.max_attempts > kMaxAttempts) {
    throw ProtocolError("max-attempts must lie in 1.." +
                        std::to_string(kMaxAttempts));
  }
  const std::string specs = require(message, "specs");
  std::size_t pos = 0;
  while (pos <= specs.size()) {
    const std::size_t comma = specs.find(',', pos);
    const std::string name =
        specs.substr(pos, comma == std::string::npos ? std::string::npos
                                                     : comma - pos);
    if (!name.empty()) request.specs.push_back(name);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (request.specs.empty()) {
    throw ProtocolError("shard request names no specs");
  }
  request.generator.tasks = require_i32(message, "gen-tasks");
  request.generator.processors = require_i32(message, "gen-processors");
  request.generator.rule = rule_from(require(message, "gen-rule"));
  request.generator.t_max = require_int(message, "gen-tmax");
  request.generator.order = order_from(require(message, "gen-order"));
  request.generator.with_offsets = require_bool(message, "gen-offsets");
  for (const std::string& token : split_tokens(message.body)) {
    try {
      std::size_t used = 0;
      const std::uint64_t index = std::stoull(token, &used);
      if (used != token.size()) throw std::invalid_argument("trailing");
      request.indices.push_back(index);
    } catch (const std::exception&) {
      throw ProtocolError("bad shard index: '" + token + "'");
    }
  }
  return request;
}

Message encode_shard_row(const ShardRow& row) {
  Message message;
  message.kind = "shard-row";
  message.set("shard-id", row.shard_id);
  message.set("index", std::to_string(row.record.index));
  message.set("tasks", static_cast<std::int64_t>(row.record.tasks));
  message.set("processors", static_cast<std::int64_t>(row.record.processors));
  message.set("hyperperiod", static_cast<std::int64_t>(row.record.hyperperiod));
  message.set("ratio", format_double(row.record.ratio));
  message.set("exceeds-capacity", row.record.exceeds_capacity ? "1" : "0");
  std::string body;
  for (const exp::RunRecord& run : row.record.runs) {
    append_run(body, run);
  }
  message.body = std::move(body);
  return message;
}

ShardRow parse_shard_row(const Message& message) {
  if (message.kind != "shard-row") {
    throw ProtocolError("expected 'shard-row', got '" + message.kind + "'");
  }
  ShardRow row;
  row.shard_id = require(message, "shard-id");
  row.record.index = require_u64(message, "index");
  row.record.tasks = require_i32(message, "tasks");
  row.record.processors = require_i32(message, "processors");
  row.record.hyperperiod = require_int(message, "hyperperiod");
  row.record.ratio = parse_double(require(message, "ratio"), "ratio");
  row.record.exceeds_capacity = require_bool(message, "exceeds-capacity");

  std::istringstream body(message.body);
  std::string line;
  while (std::getline(body, line)) {
    if (line.empty()) continue;
    if (line.rfind("run ", 0) == 0) {
      // run <verdict> <complete> <witness> <cause> <nodes> <seconds>
      //     <decided-by...>   (decided-by is the line remainder)
      std::istringstream in(line);
      std::string tag, verdict_text, complete_text, witness_text, cause_text,
          nodes_text, seconds_text;
      if (!(in >> tag >> verdict_text >> complete_text >> witness_text >>
            cause_text >> nodes_text >> seconds_text)) {
        throw ProtocolError("malformed run line: '" + line + "'");
      }
      exp::RunRecord run;
      const auto verdict = verdict_from_string(verdict_text);
      if (!verdict.has_value()) {
        throw ProtocolError("unknown verdict: '" + verdict_text + "'");
      }
      run.verdict = *verdict;
      if (complete_text != "0" && complete_text != "1") {
        throw ProtocolError("run complete flag is not 0/1");
      }
      run.complete = complete_text == "1";
      if (witness_text != "0" && witness_text != "1") {
        throw ProtocolError("run witness flag is not 0/1");
      }
      run.witness_ok = witness_text == "1";
      const auto cause = cause_from_string(cause_text);
      if (!cause.has_value()) {
        throw ProtocolError("unknown failure cause: '" + cause_text + "'");
      }
      run.failure_cause = *cause;
      run.nodes = parse_i64(nodes_text, "run nodes");
      run.seconds = parse_double(seconds_text, "run seconds");
      std::string decided_by;
      std::getline(in, decided_by);
      if (!decided_by.empty() && decided_by.front() == ' ') {
        decided_by.erase(0, 1);
      }
      if (decided_by.empty()) {
        throw ProtocolError("run line missing decided-by: '" + line + "'");
      }
      run.decided_by = decided_by == "-" ? std::string() : decided_by;
      row.record.runs.push_back(std::move(run));
      continue;
    }
    if (row.record.runs.empty()) {
      throw ProtocolError("row body starts before a run line: '" + line +
                          "'");
    }
    exp::RunRecord& run = row.record.runs.back();
    if (line.rfind("ng ", 0) == 0) {
      const std::vector<std::string> tokens = split_tokens(line);
      constexpr std::size_t kCounters = std::size(core::kNogoodCounters);
      if (tokens.size() != kCounters + 1) {
        throw ProtocolError("ng line needs " + std::to_string(kCounters) +
                            " counters: '" + line + "'");
      }
      for (std::size_t i = 0; i < kCounters; ++i) {
        run.nogoods.*core::kNogoodCounters[i] =
            parse_i64(tokens[i + 1], "ng counter");
      }
      continue;
    }
    if (line.rfind("prop ", 0) == 0) {
      // prop <wakes> <runs> <prunes> <seconds> <name...>
      std::istringstream in(line);
      std::string tag, wakes, runs, prunes, seconds;
      if (!(in >> tag >> wakes >> runs >> prunes >> seconds)) {
        throw ProtocolError("malformed prop line: '" + line + "'");
      }
      csp::PropagatorProfile prop;
      prop.wakes = parse_i64(wakes, "prop wakes");
      prop.runs = parse_i64(runs, "prop runs");
      prop.prunes = parse_i64(prunes, "prop prunes");
      prop.seconds = parse_double(seconds, "prop seconds");
      std::string name;
      std::getline(in, name);
      if (!name.empty() && name.front() == ' ') name.erase(0, 1);
      if (name.empty()) {
        throw ProtocolError("prop line missing name: '" + line + "'");
      }
      prop.name = std::move(name);
      run.propagators.push_back(std::move(prop));
      continue;
    }
    throw ProtocolError("unknown row body line: '" + line + "'");
  }
  return row;
}

Message encode_shard_beat(const ShardBeat& beat) {
  Message message;
  message.kind = "shard-beat";
  message.set("shard-id", beat.shard_id);
  message.set("beat", std::to_string(beat.beat));
  message.set("done", beat.done);
  message.set("total", beat.total);
  return message;
}

ShardBeat parse_shard_beat(const Message& message) {
  if (message.kind != "shard-beat") {
    throw ProtocolError("expected 'shard-beat', got '" + message.kind + "'");
  }
  ShardBeat beat;
  beat.shard_id = require(message, "shard-id");
  beat.beat = require_u64(message, "beat");
  beat.done = require_int(message, "done");
  beat.total = require_int(message, "total");
  return beat;
}

Message encode_shard_done(const ShardDone& done) {
  Message message;
  message.kind = "shard-done";
  message.set("shard-id", done.shard_id);
  message.set("rows", done.rows);
  message.set("failures", done.health.failures);
  message.set("retries", done.health.retries);
  message.set("recovered", done.health.recovered);
  message.set("quarantined", done.health.quarantined);
  message.body = done.health.first_error;
  return message;
}

ShardDone parse_shard_done(const Message& message) {
  if (message.kind != "shard-done") {
    throw ProtocolError("expected 'shard-done', got '" + message.kind + "'");
  }
  ShardDone done;
  done.shard_id = require(message, "shard-id");
  done.rows = require_int(message, "rows");
  done.health.failures = require_int(message, "failures");
  done.health.retries = require_int(message, "retries");
  done.health.recovered = require_int(message, "recovered");
  done.health.quarantined = require_int(message, "quarantined");
  done.health.first_error = message.body;
  return done;
}

}  // namespace mgrts::serve
