// Serving layer (DESIGN.md §13): wire protocol, canonical cache keys, the
// verdict cache, the in-process Service funnel, and the socket daemon
// end to end, shard route included.  The contract under test everywhere: a
// request that reaches the serving layer ALWAYS gets a tagged response
// carrying the canonical Verdict/FailureCause vocabulary, and a cached
// answer is indistinguishable from a fresh one except for its "cache:"
// provenance prefix.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/canonical.hpp"
#include "core/instance_io.hpp"
#include "core/solve.hpp"
#include "dist/coord.hpp"
#include "dist/worker.hpp"
#include "exp/sharded.hpp"
#include "flow/oracle.hpp"
#include "gen/generator.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "support/deadline.hpp"
#include "support/rng.hpp"
#include "support/socket.hpp"
#include "testing.hpp"

namespace mgrts::serve {
namespace {

// ------------------------------------------------------------------ wire

TEST(Wire, FormatParseRoundTrip) {
  Message msg;
  msg.kind = "solve";
  msg.set("timeout-ms", std::int64_t{250});
  msg.set("id", "req-1");
  msg.body = "tasks 1\n0 1 2 2\nprocessors 1\n";

  const Message parsed = parse_message(format_message(msg));
  EXPECT_EQ(parsed.kind, "solve");
  EXPECT_EQ(parsed.get("id"), "req-1");
  EXPECT_EQ(parsed.get_int("timeout-ms"), 250);
  EXPECT_EQ(parsed.body, msg.body);
}

TEST(Wire, EmptyHeadersAndBodyRoundTrip) {
  Message msg;
  msg.kind = "ping";
  const Message parsed = parse_message(format_message(msg));
  EXPECT_EQ(parsed.kind, "ping");
  EXPECT_TRUE(parsed.headers.empty());
  EXPECT_TRUE(parsed.body.empty());
}

TEST(Wire, RejectsForeignTag) {
  EXPECT_THROW((void)parse_message("mgrts/2 solve\n\n"), ProtocolError);
  EXPECT_THROW((void)parse_message("GET / HTTP/1.1\r\n\r\n"), ProtocolError);
  EXPECT_THROW((void)parse_message(""), ProtocolError);
}

TEST(Wire, RejectsMissingKindOrHeaderShape) {
  EXPECT_THROW((void)parse_message("mgrts/1\n\n"), ProtocolError);
  EXPECT_THROW((void)parse_message("mgrts/1 solve\nno-separator"),
               ProtocolError);
}

TEST(Wire, GetIntRejectsNonNumericHeader) {
  Message msg;
  msg.kind = "solve";
  msg.set("timeout-ms", "soon");
  EXPECT_THROW((void)msg.get_int("timeout-ms"), ProtocolError);
  EXPECT_EQ(msg.get_int("absent"), std::nullopt);
}

// --------------------------------------------- wire: hostile short frames
//
// A frame header may declare more payload than the peer ever delivers —
// by malice, by a crashed sender, or by a version-skewed encoder.  The
// contract (wire.hpp): a truncated frame is a ProtocolError, promptly;
// recv_frame never parks forever on a declared-but-absent body.

namespace {

/// A connected AF_UNIX socketpair; `ours` is the attacker end the test
/// writes raw bytes to, `theirs` is the end recv_frame reads from.
struct WirePair {
  support::Fd ours;
  support::Fd theirs;
  WirePair() {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw support::SocketError("socketpair failed");
    }
    ours = support::Fd(fds[0]);
    theirs = support::Fd(fds[1]);
  }
  /// Writes a big-endian length prefix declaring `declared` payload bytes.
  void write_prefix(std::uint32_t declared) {
    const char prefix[4] = {static_cast<char>((declared >> 24) & 0xff),
                            static_cast<char>((declared >> 16) & 0xff),
                            static_cast<char>((declared >> 8) & 0xff),
                            static_cast<char>(declared & 0xff)};
    support::write_all(ours, std::string_view(prefix, 4));
  }
};

}  // namespace

TEST(Wire, TruncatedFrameNoBodyAtAllIsProtocolError) {
  WirePair pair;
  pair.write_prefix(64);  // declare 64 bytes, deliver zero, hang up
  pair.ours.close();
  std::string payload;
  EXPECT_THROW((void)recv_frame(pair.theirs, payload, 5'000), ProtocolError);
}

TEST(Wire, TruncatedFramePartialBodyIsProtocolError) {
  WirePair pair;
  pair.write_prefix(64);
  support::write_all(pair.ours, "mgrts/1 ping\n");  // 13 of 64, then EOF
  pair.ours.close();
  std::string payload;
  EXPECT_THROW((void)recv_frame(pair.theirs, payload, 5'000), ProtocolError);
}

TEST(Wire, SilentPeerAfterPrefixTimesOutAsProtocolError) {
  // The peer declares a body and then goes silent without closing.  The
  // caller's timeout bounds the body read (capped by kIntraFrameTimeoutMs),
  // so this surfaces promptly instead of blocking the handler forever.
  WirePair pair;
  pair.write_prefix(64);
  std::string payload;
  support::Stopwatch watch;
  EXPECT_THROW((void)recv_frame(pair.theirs, payload, 200), ProtocolError);
  EXPECT_LT(watch.seconds(), 5.0);
}

TEST(Wire, EveryPrefixOfARealFrameTruncatesCleanly) {
  // Cut a genuine formatted frame at every interesting boundary: inside
  // the prefix region is a frame-size truth test already (prefix short
  // reads return false as clean EOF); here we cut inside the declared
  // body at several offsets, including just-one-byte-short.
  Message msg;
  msg.kind = "solve";
  msg.set("id", "req-cut");
  msg.body = "tasks 1\n0 1 2 2\nprocessors 1\n";
  const std::string wire = format_message(msg);

  for (const std::size_t keep :
       {std::size_t{1}, wire.size() / 2, wire.size() - 1}) {
    WirePair pair;
    pair.write_prefix(static_cast<std::uint32_t>(wire.size()));
    support::write_all(pair.ours, std::string_view(wire).substr(0, keep));
    pair.ours.close();
    std::string payload;
    EXPECT_THROW((void)recv_frame(pair.theirs, payload, 5'000), ProtocolError)
        << "cut at " << keep << "/" << wire.size();
  }
}

TEST(Wire, TruncatedPrefixIsCleanEofNotAnError) {
  // A peer that closes between messages — even mid-prefix with zero bytes
  // sent — is the normal end-of-stream, not an attack.
  WirePair pair;
  pair.ours.close();
  std::string payload;
  EXPECT_FALSE(recv_frame(pair.theirs, payload, 5'000));
}

TEST(Wire, ZeroLengthAndValidFramesStillFlow) {
  // The hardening must not break the good path: an empty frame and a real
  // frame back to back, over the same pair.
  WirePair pair;
  pair.write_prefix(0);
  Message msg;
  msg.kind = "ping";
  send_frame(pair.ours, format_message(msg));
  std::string payload;
  ASSERT_TRUE(recv_frame(pair.theirs, payload, 5'000));
  EXPECT_TRUE(payload.empty());
  ASSERT_TRUE(recv_frame(pair.theirs, payload, 5'000));
  EXPECT_EQ(parse_message(payload).kind, "ping");
}

// A frame far larger than the socket buffer: the prefix and the payload
// leave as one gathered write that blocks until the reader drains it, and
// arrive intact and in order, back to back with a small frame.
TEST(Wire, LargeFramesArriveIntact) {
  WirePair pair;
  std::string big(4u << 20, '\0');
  for (std::size_t k = 0; k < big.size(); ++k) {
    big[k] = static_cast<char>((k * 131) >> 7);
  }
  std::thread writer([&] {
    try {
      send_frame(pair.ours, big);
      send_frame(pair.ours, "tail");
    } catch (const std::exception&) {
      // Only after a failed read below, which reports it.
    }
  });
  std::string payload, tail;
  bool first = false, second = false;
  try {
    first = recv_frame(pair.theirs, payload, 5'000);
    second = recv_frame(pair.theirs, tail, 5'000);
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what();
  }
  pair.theirs.shutdown();  // unblocks the writer if a read failed
  writer.join();
  EXPECT_TRUE(first);
  EXPECT_TRUE(payload == big) << "payload of " << payload.size() << " bytes";
  EXPECT_TRUE(second);
  EXPECT_EQ(tail, "tail");
}

TEST(Wire, VerdictAndCauseStringsRoundTrip) {
  for (const core::Verdict v :
       {core::Verdict::kFeasible, core::Verdict::kInfeasible,
        core::Verdict::kTimeout, core::Verdict::kNodeLimit,
        core::Verdict::kMemoryLimit, core::Verdict::kUnknown}) {
    EXPECT_EQ(verdict_from_string(core::to_string(v)), v);
  }
  for (const core::FailureCause c :
       {core::FailureCause::kNone, core::FailureCause::kDeadline,
        core::FailureCause::kCancelled, core::FailureCause::kMemory,
        core::FailureCause::kNodeBudget, core::FailureCause::kInternalError,
        core::FailureCause::kFaultInjected}) {
    EXPECT_EQ(cause_from_string(core::to_string(c)), c);
  }
  EXPECT_EQ(verdict_from_string("maybe"), std::nullopt);
  EXPECT_EQ(cause_from_string("gremlins"), std::nullopt);
}

// ------------------------------------------------------ wire: fuzz loop
//
// A fixed-seed mutation loop over parse_message.  The seeds are the
// hostile payload corpus below (each a ProtocolError) and well-formed
// payloads of every request and response kind.  Every mutant must either
// throw ProtocolError or parse to a Message that comes back unchanged
// through format_message -> parse_message; the wire format has one spelling
// per Message, so the mutant's own bytes come back too.

/// Payloads parse_message must refuse.
const std::vector<std::string>& hostile_payloads() {
  static const std::vector<std::string> corpus = {
      "",
      "mgrts/1",
      "mgrts/1\n\n",
      "mgrts/1 \n\n",
      "mgrts/2 solve\n\n",
      "mgrts/1solve\n\n",
      " mgrts/1 solve\n\n",
      "GET / HTTP/1.1\r\n\r\n",
      "mgrts/1 solve",
      "mgrts/1 solve\n",
      "mgrts/1 solve\nno-separator",
      "mgrts/1 solve\nno-separator\n\n",
      "mgrts/1 solve\n leading-space value\n\n",
      "mgrts/1 solve\ntimeout-ms 5\n",
      "mgrts/1 solve\ntimeout-ms 5\nid",
      std::string("mgrts/1\0 solve\n\n", 16),
  };
  return corpus;
}

/// Well-formed payloads: every kind, with and without headers and bodies.
std::vector<std::string> valid_payloads() {
  std::vector<std::string> seeds;
  const auto add = [&](const char* kind, std::vector<std::pair<std::string,
                                                               std::string>>
                                             headers,
                       std::string body) {
    Message message;
    message.kind = kind;
    message.headers = std::move(headers);
    message.body = std::move(body);
    seeds.push_back(format_message(message));
  };
  const std::string instance = core::write_instance_string(
      testing::example1(), testing::example1_platform());
  add("solve", {{"timeout-ms", "250"}, {"id", "req 1"}}, instance);
  add("solve", {}, "tasks 1\n0 1 2 2\nprocessors 1\n");
  add("ping", {}, "");
  add("health", {}, "");
  add("shutdown", {}, "");
  add("shard", {{"shard", "3"}, {"indices", "1 2 3"}, {"seed", "7"}}, "");
  add("ok", {{"verdict", "feasible"}, {"decided-by", "flow-oracle"}},
      "0 1\n2 -1\n");
  add("pong", {}, "");
  add("bye", {}, "");
  seeds.push_back(format_message(error_message("protocol", "bad tag")));
  return seeds;
}

/// Byte edits draw from line and field separators, the tag's bytes, NUL
/// and digits; tokens inserted whole are tags, kinds and header shapes.
using std::string_view_literals::operator""sv;
constexpr std::string_view kWireEditBytes = " \n\r\t\0mgrts/019"sv;
constexpr std::string_view kWireEditTokens[] = {
    "mgrts/1 ", "mgrts/1",     "\n\n",     "\n",   " ",
    "solve",    "timeout-ms ", "id x y\n", "\r\n", "health",
};

void mutate_payload(std::string& text, support::Rng& rng) {
  const auto pick = [&](std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(size) - 1));
  };
  const auto edit_byte = [&] {
    return rng.chance(0.1) ? static_cast<char>(rng.uniform(0, 255))
                           : kWireEditBytes[pick(kWireEditBytes.size())];
  };
  switch (rng.uniform(0, 5)) {
    case 0:  // replace a byte
      if (!text.empty()) text[pick(text.size())] = edit_byte();
      break;
    case 1:  // insert a byte
      text.insert(pick(text.size() + 1), 1, edit_byte());
      break;
    case 2:  // delete a byte
      if (!text.empty()) text.erase(pick(text.size()), 1);
      break;
    case 3: {  // insert a whole token
      const std::string_view token =
          kWireEditTokens[pick(std::size(kWireEditTokens))];
      text.insert(pick(text.size() + 1), token);
      break;
    }
    case 4: {  // duplicate a run of bytes
      if (text.empty()) break;
      const std::size_t at = pick(text.size());
      text.insert(at, text.substr(at, pick(16) + 1));
      break;
    }
    default:  // truncate
      text.resize(pick(text.size() + 1));
      break;
  }
}

bool same_message(const Message& a, const Message& b) {
  return a.kind == b.kind && a.headers == b.headers && a.body == b.body;
}

TEST(Wire, HostileCorpusIsRefused) {
  for (const std::string& payload : hostile_payloads()) {
    EXPECT_THROW((void)parse_message(payload), ProtocolError)
        << "'" << payload << "'";
  }
}

TEST(WireFuzz, MutantsAreRefusedOrRoundTripUnchanged) {
  const std::vector<std::string> seed_sets[] = {valid_payloads(),
                                                hostile_payloads()};
  support::Rng rng(20'261'021);
  int refused = 0;
  int parsed = 0;
  for (int k = 0; k < 20'000; ++k) {
    const auto& seeds = seed_sets[k % 2];
    std::string text = seeds[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(seeds.size()) - 1))];
    for (std::int64_t edits = rng.uniform(1, 3); edits > 0; --edits) {
      mutate_payload(text, rng);
    }
    Message message;
    try {
      message = parse_message(text);
    } catch (const ProtocolError&) {
      ++refused;
      continue;
    }
    ++parsed;
    const std::string again = format_message(message);
    ASSERT_TRUE(same_message(parse_message(again), message))
        << "mutant " << k << ": '" << text << "'";
    ASSERT_EQ(again, text) << "mutant " << k;
  }
  // Both outcomes occur often enough to mean something.
  EXPECT_GT(refused, 2'000);
  EXPECT_GT(parsed, 2'000);
}

// -------------------------------------------------------- canonical keys

rt::TaskSet permuted(const rt::TaskSet& ts) {
  std::vector<rt::TaskParams> params;
  for (rt::TaskId i = 0; i < ts.size(); ++i) {
    params.push_back({ts[i].offset(), ts[i].wcet(), ts[i].deadline(),
                      ts[i].period()});
  }
  std::rotate(params.begin(), params.begin() + 1, params.end());
  return rt::TaskSet::from_params(params, ts.model());
}

TEST(CanonicalKey, PermutationInvariant) {
  const rt::TaskSet ts = testing::example1();
  const rt::Platform platform = testing::example1_platform();
  EXPECT_EQ(core::canonical_key(ts, platform),
            core::canonical_key(permuted(ts), platform));
  EXPECT_EQ(core::canonical_key(ts, platform),
            core::canonical_key(permuted(permuted(ts)), platform));
}

TEST(CanonicalKey, ScalingInvariantOnIdenticalPlatforms) {
  // Every parameter times 3 is the same schedulability instance on an
  // identical platform (the max-flow condition scales linearly).
  const rt::TaskSet base = testing::example1();
  std::vector<rt::TaskParams> scaled;
  for (rt::TaskId i = 0; i < base.size(); ++i) {
    scaled.push_back({base[i].offset() * 3, base[i].wcet() * 3,
                      base[i].deadline() * 3, base[i].period() * 3});
  }
  const rt::TaskSet ts3 = rt::TaskSet::from_params(scaled, base.model());
  const rt::Platform platform = testing::example1_platform();
  EXPECT_EQ(core::canonical_key(base, platform),
            core::canonical_key(ts3, platform));

  // ... and scaling can be opted out of.
  core::CanonicalOptions no_scale;
  no_scale.scaling = false;
  EXPECT_NE(core::canonical_key(base, platform, no_scale),
            core::canonical_key(ts3, platform, no_scale));
}

TEST(CanonicalKey, ScalingNotAppliedOffIdenticalPlatforms) {
  // No exactness theorem off identical platforms, so the scaled pair must
  // NOT collide even with scaling enabled.
  const rt::TaskSet base =
      rt::TaskSet::from_params({{0, 2, 4, 4}, {0, 2, 4, 4}});
  const rt::TaskSet ts2 =
      rt::TaskSet::from_params({{0, 4, 8, 8}, {0, 4, 8, 8}});
  const rt::Platform uniform = rt::Platform::uniform({2, 1});
  EXPECT_NE(core::canonical_key(base, uniform),
            core::canonical_key(ts2, uniform));
}

TEST(CanonicalKey, UniformSpeedOrderIsCanonical) {
  const rt::TaskSet ts = testing::light3();
  EXPECT_EQ(core::canonical_key(ts, rt::Platform::uniform({1, 3, 2})),
            core::canonical_key(ts, rt::Platform::uniform({3, 2, 1})));
  EXPECT_NE(core::canonical_key(ts, rt::Platform::uniform({3, 2, 1})),
            core::canonical_key(ts, rt::Platform::uniform({3, 2, 2})));
}

TEST(CanonicalKey, HeterogeneousRateRowsTravelWithTheirTasks) {
  // Permuting tasks *with* their rate rows is the same instance; permuting
  // tasks while leaving the rate matrix behind is a different one.
  const rt::TaskSet ts =
      rt::TaskSet::from_params({{0, 1, 2, 2}, {0, 2, 3, 3}});
  const rt::TaskSet swapped =
      rt::TaskSet::from_params({{0, 2, 3, 3}, {0, 1, 2, 2}});
  const rt::Platform rates = rt::Platform::heterogeneous({{1, 2}, {2, 0}});
  const rt::Platform rates_swapped =
      rt::Platform::heterogeneous({{2, 0}, {1, 2}});
  EXPECT_EQ(core::canonical_key(ts, rates),
            core::canonical_key(swapped, rates_swapped));
  EXPECT_NE(core::canonical_key(ts, rates),
            core::canonical_key(swapped, rates));
}

TEST(CanonicalKey, DistinctInstancesStayDistinct) {
  const rt::Platform m2 = rt::Platform::identical(2);
  EXPECT_NE(core::canonical_key(testing::example1(), m2),
            core::canonical_key(testing::light3(), m2));
  EXPECT_NE(core::canonical_key(testing::example1(), m2),
            core::canonical_key(testing::example1(), rt::Platform::identical(3)));
}

// ---------------------------------------------------------- verdict cache

TEST(VerdictCache, MissThenHitWithProvenance) {
  VerdictCache cache;
  EXPECT_EQ(cache.lookup("k1"), std::nullopt);
  cache.insert("k1", core::Verdict::kFeasible, true, "flow-oracle");

  const auto hit = cache.lookup("k1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->verdict, core::Verdict::kFeasible);
  EXPECT_TRUE(hit->complete);
  EXPECT_EQ(hit->decided_by, "flow-oracle");
  EXPECT_EQ(hit->hits, 0);  // hits before this lookup

  const auto again = cache.lookup("k1");
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->hits, 1);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.inserts, 1);
}

TEST(VerdictCache, RejectsNonDecisiveVerdicts) {
  // Budget outcomes are a function of the budget, not the instance; caching
  // one would poison every duplicate after a starved request.
  VerdictCache cache;
  cache.insert("t", core::Verdict::kTimeout, false, "backend:CSP2(dedicated)");
  cache.insert("n", core::Verdict::kNodeLimit, false, "x");
  cache.insert("m", core::Verdict::kMemoryLimit, false, "x");
  cache.insert("u", core::Verdict::kUnknown, false, "x");
  // Incomplete infeasible = "ran out of budget while unsat so far", not a
  // proof — must be rejected too.
  cache.insert("i", core::Verdict::kInfeasible, false, "x");

  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().rejected, 5);

  // Complete infeasible IS a proof.
  cache.insert("proof", core::Verdict::kInfeasible, true, "analysis");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(VerdictCache, FirstWriterWinsKeepsProvenanceStable) {
  VerdictCache cache;
  cache.insert("k", core::Verdict::kFeasible, true, "flow-oracle");
  cache.insert("k", core::Verdict::kFeasible, true, "backend:CSP2(dedicated)");
  const auto hit = cache.lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->decided_by, "flow-oracle");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(VerdictCache, LruEvictionRefreshedByHits) {
  CacheOptions options;
  options.capacity = 2;
  VerdictCache cache(options);
  cache.insert("a", core::Verdict::kFeasible, true, "x");
  cache.insert("b", core::Verdict::kFeasible, true, "x");
  (void)cache.lookup("a");  // refresh "a"; "b" is now least-recently used
  cache.insert("c", core::Verdict::kFeasible, true, "x");

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(VerdictCache, CapacityZeroDisablesCaching) {
  CacheOptions options;
  options.capacity = 0;
  VerdictCache cache(options);
  cache.insert("k", core::Verdict::kFeasible, true, "x");
  EXPECT_EQ(cache.lookup("k"), std::nullopt);
  EXPECT_EQ(cache.size(), 0u);
}

// --------------------------------------------------------------- service

Message solve_request(const std::string& body) {
  Message request;
  request.kind = "solve";
  request.body = body;
  return request;
}

TEST(Service, SolvesAndTagsAFeasibleInstance) {
  Service service;
  const Message response = service.handle_message(solve_request(
      core::write_instance_string(testing::example1(),
                                  testing::example1_platform())));
  EXPECT_EQ(response.kind, "ok");
  EXPECT_EQ(response.get("verdict"), "feasible");
  EXPECT_EQ(response.get("complete"), "1");
  EXPECT_EQ(response.get("cause"), "none");
  EXPECT_EQ(response.get("decided-by"), "flow-oracle");
  EXPECT_EQ(response.get("cache"), "miss");
}

TEST(Service, PermutedAndScaledDuplicatesHitTheCache) {
  Service service;
  const rt::TaskSet base = testing::example1();
  const rt::Platform platform = testing::example1_platform();

  const Message first = service.handle_message(
      solve_request(core::write_instance_string(base, platform)));
  EXPECT_EQ(first.get("cache"), "miss");

  const Message second = service.handle_message(
      solve_request(core::write_instance_string(permuted(base), platform)));
  EXPECT_EQ(second.get("cache"), "hit");
  EXPECT_EQ(second.get("verdict"), first.get("verdict"));
  EXPECT_EQ(second.get("decided-by"), "cache:flow-oracle");
  EXPECT_EQ(second.get("cause"), "none");

  std::vector<rt::TaskParams> scaled;
  for (rt::TaskId i = 0; i < base.size(); ++i) {
    scaled.push_back({base[i].offset() * 5, base[i].wcet() * 5,
                      base[i].deadline() * 5, base[i].period() * 5});
  }
  const Message third = service.handle_message(solve_request(
      core::write_instance_string(
          rt::TaskSet::from_params(scaled, base.model()), platform)));
  EXPECT_EQ(third.get("cache"), "hit");
  EXPECT_EQ(third.get("verdict"), first.get("verdict"));

  EXPECT_EQ(service.counters().cache_hits, 2);
}

TEST(Service, NoCacheHeaderBypasses) {
  Service service;
  const std::string body = core::write_instance_string(
      testing::example1(), testing::example1_platform());
  (void)service.handle_message(solve_request(body));

  Message request = solve_request(body);
  request.set("no-cache", "1");
  const Message response = service.handle_message(request);
  EXPECT_EQ(response.get("cache"), "bypass");
  EXPECT_EQ(response.get("decided-by"), "flow-oracle");  // solved fresh
  EXPECT_EQ(service.counters().cache_hits, 0);
}

TEST(Service, MalformedInstanceDegradesToParseError) {
  Service service;
  const Message response =
      service.handle_message(solve_request("tasks two\n0 1 2 2\n"));
  EXPECT_EQ(response.kind, "error");
  EXPECT_EQ(response.get("error-kind"), "parse");
  EXPECT_EQ(response.get("verdict"), "unknown");
  EXPECT_EQ(response.get("cause"), "none");
  EXPECT_FALSE(response.body.empty());
  EXPECT_EQ(service.counters().parse_errors, 1);
}

TEST(Service, InvalidSystemDegradesToValidationError) {
  Service service;
  const Message response = service.handle_message(
      solve_request("tasks 1\n0 0 2 4\nprocessors 1\n"));  // wcet = 0
  EXPECT_EQ(response.kind, "error");
  EXPECT_EQ(response.get("error-kind"), "validation");
  EXPECT_EQ(service.counters().validation_errors, 1);
}

TEST(Service, UnknownKindAndUnknownMethodAreProtocolErrors) {
  Service service;
  Message bogus;
  bogus.kind = "teleport";
  EXPECT_EQ(service.handle_message(bogus).get("error-kind"), "protocol");

  Message request = solve_request(core::write_instance_string(
      testing::example1(), testing::example1_platform()));
  request.set("method", "quantum-annealing");
  EXPECT_EQ(service.handle_message(request).get("error-kind"), "protocol");
  EXPECT_EQ(service.counters().protocol_errors, 2);
}

TEST(Service, RawPayloadFunnelNeverThrows) {
  Service service;
  for (const std::string& payload :
       {std::string("not a frame"), std::string(""),
        std::string("mgrts/1 solve\nbroken"),
        std::string(512, '\0')}) {
    const Message response = parse_message(service.handle(payload));
    EXPECT_EQ(response.kind, "error");
    EXPECT_EQ(response.get("error-kind"), "protocol");
  }
}

TEST(Service, StarvedDeadlineDegradesNotErrors) {
  Service service;
  // An arbitrary-deadline instance skips the constrained-only presolve
  // stages, and the generic engine polls the deadline before opening its
  // first decision — so a zero budget deterministically reads as expired.
  Message request = solve_request(core::write_instance_string(
      rt::TaskSet::from_params(
          {{0, 2, 4, 3}, {0, 2, 4, 3}, {0, 1, 3, 3}},
          rt::DeadlineModel::kArbitrary),
      rt::Platform::identical(2)));
  request.set("method", "CSP1(generic)");
  request.set("timeout-ms", std::int64_t{0});
  request.set("no-cache", "1");  // don't let the cache answer instantly
  const Message response = service.handle_message(request);
  EXPECT_EQ(response.kind, "ok");
  EXPECT_EQ(response.get("verdict"), "timeout");
  EXPECT_EQ(response.get("cause"), "deadline");
}

TEST(Service, CancelledContextReportsCancelled) {
  Service service;
  RequestContext context;
  context.cancel = support::CancelToken::make();
  context.cancel.cancel();  // cancelled before the solve starts

  Message request = solve_request(core::write_instance_string(
      testing::example1(), testing::example1_platform()));
  request.set("no-cache", "1");
  // Force a search backend: the flow oracle decides without polling, so a
  // pre-cancelled token needs a polling solver to be observed.
  request.set("method", "CSP2(dedicated)");
  const Message response = service.handle_message(request, context);
  EXPECT_EQ(response.kind, "ok");
  // Cancellation is cooperative: either the search finished before its
  // first poll, or it degraded to kTimeout attributed to the cancel.
  if (response.get("verdict") == "timeout") {
    EXPECT_EQ(response.get("cause"), "cancelled");
  } else {
    EXPECT_EQ(response.get("verdict"), "feasible");
  }
}

TEST(Service, IdIsEchoed) {
  Service service;
  Message request = solve_request(core::write_instance_string(
      testing::example1(), testing::example1_platform()));
  request.set("id", "tag-42");
  EXPECT_EQ(service.handle_message(request).get("id"), "tag-42");

  Message ping;
  ping.kind = "ping";
  ping.set("id", "tag-43");
  EXPECT_EQ(service.handle_message(ping).get("id"), "tag-43");
}

TEST(Service, HealthReportsTheCounterBlock) {
  Service service;
  const std::string good = core::write_instance_string(
      testing::example1(), testing::example1_platform());
  (void)service.handle_message(solve_request(good));
  (void)service.handle_message(solve_request(good));  // cache hit
  (void)service.handle_message(solve_request("tasks zero\n"));

  Message health;
  health.kind = "health";
  const Message response = service.handle_message(health);
  EXPECT_EQ(response.kind, "health");
  EXPECT_EQ(response.get_int("requests"), 4);  // 3 above + this health
  EXPECT_EQ(response.get_int("solved"), 2);
  EXPECT_EQ(response.get_int("decided"), 2);
  EXPECT_EQ(response.get_int("cache-hits"), 1);
  EXPECT_EQ(response.get_int("parse-errors"), 1);
  EXPECT_EQ(response.get_int("latency-samples"), 0);  // handle() path only
  EXPECT_FALSE(response.body.empty());  // first_error carries the parse mess
}

TEST(Service, ShutdownFlagFlips) {
  Service service;
  EXPECT_FALSE(service.shutdown_requested());
  Message request;
  request.kind = "shutdown";
  EXPECT_EQ(service.handle_message(request).kind, "bye");
  EXPECT_TRUE(service.shutdown_requested());
}

// The acceptance pin: a cached answer must equal a fresh solve of the same
// (permuted, rescaled) instance — over a generated stream, not just the
// fixture.
TEST(Service, CachedVerdictEqualsFreshSolve) {
  Service service;
  gen::GeneratorOptions g;
  g.tasks = 4;
  g.processors = 2;
  g.t_max = 5;
  for (std::uint64_t idx = 0; idx < 20; ++idx) {
    const gen::Instance inst = gen::generate_indexed(g, 20090908, idx);
    const rt::Platform platform = rt::Platform::identical(inst.processors);
    const std::string label = "instance " + std::to_string(idx);

    // Prime the cache with the original orientation.
    const Message primed = service.handle_message(
        solve_request(core::write_instance_string(inst.tasks, platform)));
    ASSERT_EQ(primed.kind, "ok") << label;

    // Permuted duplicate: answered from cache...
    const Message cached = service.handle_message(solve_request(
        core::write_instance_string(permuted(inst.tasks), platform)));
    ASSERT_EQ(cached.kind, "ok") << label;

    // ... and the same duplicate solved fresh with the cache bypassed.
    Message fresh_request = solve_request(
        core::write_instance_string(permuted(inst.tasks), platform));
    fresh_request.set("no-cache", "1");
    const Message fresh = service.handle_message(fresh_request);
    ASSERT_EQ(fresh.kind, "ok") << label;

    if (cached.get("cache") == "hit") {
      EXPECT_EQ(cached.get("verdict"), fresh.get("verdict"))
          << label << ": cached verdict diverged from a fresh solve";
    }
    // Both must agree with the polynomial ground truth.
    const bool truth = flow::is_feasible(inst.tasks, platform);
    EXPECT_EQ(fresh.get("verdict"), truth ? "feasible" : "infeasible")
        << label;
    EXPECT_EQ(cached.get("verdict"), truth ? "feasible" : "infeasible")
        << label;
  }
  EXPECT_GT(service.counters().cache_hits, 0);
}

// ------------------------------------------------------- socket end to end

std::string test_socket_path(const char* tag) {
  return "/tmp/mgrts_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(Daemon, SolvePingHealthOverTheSocket) {
  ServerOptions options;
  options.socket_path = test_socket_path("e2e");
  options.workers = 2;
  Server server(options);
  server.start();

  {
    Client client(options.socket_path);
    EXPECT_TRUE(client.ping());
  }
  {
    Client client(options.socket_path);
    const SolveResult result = client.solve(core::write_instance_string(
        testing::example1(), testing::example1_platform()));
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.verdict, core::Verdict::kFeasible);
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.cause, core::FailureCause::kNone);
    EXPECT_EQ(result.decided_by, "flow-oracle");
  }
  {
    // A malformed instance through the real transport: tagged, not fatal.
    Client client(options.socket_path);
    const SolveResult result = client.solve("tasks banana\n");
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error_kind, "parse");
    EXPECT_EQ(result.verdict, core::Verdict::kUnknown);
  }
  {
    Client client(options.socket_path);
    const Message health = client.health();
    EXPECT_EQ(health.kind, "health");
    EXPECT_GE(health.get_int("requests").value_or(0), 3);
    EXPECT_EQ(health.get_int("solved"), 1);
    EXPECT_EQ(health.get_int("parse-errors"), 1);
  }

  server.stop();
}

TEST(Daemon, ShutdownRequestStopsTheAcceptLoop) {
  ServerOptions options;
  options.socket_path = test_socket_path("bye");
  options.workers = 2;
  options.poll_interval_ms = 50;
  Server server(options);
  server.start();

  {
    Client client(options.socket_path);
    client.shutdown();
  }
  // stop() joins the accept loop; after a shutdown request it must already
  // be unwinding, so this returns promptly rather than timing out.
  server.stop();
  EXPECT_TRUE(server.service().shutdown_requested());
}

TEST(Daemon, StopWakesTheWatchdogInsteadOfWaitingOutItsInterval) {
  // Under the default 5,000 ms stall the watchdog checks every 250 ms.  It
  // waits on a condition variable that stop() signals, so stop() returns
  // at once instead of after the watchdog's current interval.
  ServerOptions options;
  options.socket_path = test_socket_path("stop");
  ASSERT_EQ(options.watchdog_stall_ms, 5'000);
  Server server(options);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // mid-wait
  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(50));
}

TEST(Daemon, StopDoesNotWaitOutTheAcceptPoll) {
  // The accept loop waits up to the default 200 ms poll; stop() wakes it
  // through the server's wake pipe.
  ServerOptions options;
  options.socket_path = test_socket_path("prompt");
  options.workers = 2;
  ASSERT_EQ(options.poll_interval_ms, 200);
  Server server(options);
  server.start();
  {
    Client client(options.socket_path);
    ASSERT_TRUE(client.ping());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // mid-poll
  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(50));
}

TEST(Daemon, ShutdownRequestEndsRunWithoutWaitingOutThePoll) {
  ServerOptions options;
  options.socket_path = test_socket_path("prompt_bye");
  options.workers = 2;
  ASSERT_EQ(options.poll_interval_ms, 200);
  Server server(options);
  std::chrono::steady_clock::time_point returned;
  std::thread loop([&] {
    server.run();
    returned = std::chrono::steady_clock::now();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // mid-poll
  {
    Client client(options.socket_path);
    client.shutdown();
  }
  const auto answered = std::chrono::steady_clock::now();
  loop.join();
  EXPECT_LT(returned - answered, std::chrono::milliseconds(50));
  EXPECT_TRUE(server.service().shutdown_requested());
}

TEST(Daemon, GarbageBytesOnTheSocketGetARefusalNotACrash) {
  ServerOptions options;
  options.socket_path = test_socket_path("garbage");
  options.workers = 2;
  Server server(options);
  server.start();

  {
    // A length prefix announcing far beyond kMaxFrameBytes: the server
    // must answer with a protocol refusal and drop the connection.
    support::Fd fd = support::connect_unix(options.socket_path);
    support::write_all(fd, "\xff\xff\xff\xff");
    std::string payload;
    EXPECT_TRUE(recv_frame(fd, payload, 5'000));
    const Message refusal = parse_message(payload);
    EXPECT_EQ(refusal.kind, "error");
    EXPECT_EQ(refusal.get("error-kind"), "protocol");
  }
  {
    // The daemon is still alive and serving afterwards.
    Client client(options.socket_path);
    EXPECT_TRUE(client.ping());
  }

  server.stop();
}

// A body whose last line holds only '\v' once crashed the daemon: the
// line trim kept the '\v', the tokenizer split it away, and the directive
// loop read the first token of a line that had none.
TEST(Daemon, WhitespaceOnlyDirectiveLineIsAParseRefusal) {
  ServerOptions options;
  options.socket_path = test_socket_path("vtab");
  options.workers = 2;
  Server server(options);
  server.start();

  {
    Client client(options.socket_path);
    const SolveResult result =
        client.solve("tasks 1\n0 1 2 2\nprocessors 1\n\v\n");
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error_kind, "parse");
    EXPECT_EQ(result.verdict, core::Verdict::kUnknown);
  }
  {
    // The daemon is still alive and serving afterwards.
    Client client(options.socket_path);
    EXPECT_TRUE(client.ping());
  }

  server.stop();
}

// One daemon, one socket: the Service answers solves and control requests
// while the fleet's "shard" route serves a coordinator, and the two share
// one health ledger and one error vocabulary.
TEST(Daemon, OneServerAnswersSolvesAndShards) {
  ServerOptions options;
  options.socket_path = test_socket_path("one");
  options.workers = 2;
  Server server(options);
  dist::add_shard_route(server, /*beat_interval_ms=*/20);
  server.start();

  {
    Client client(options.socket_path);
    const SolveResult result = client.solve(core::write_instance_string(
        testing::example1(), testing::example1_platform()));
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.verdict, core::Verdict::kFeasible);
  }

  exp::BatchOptions batch;
  batch.generator.tasks = 6;
  batch.generator.processors = 3;
  batch.generator.t_max = 5;
  batch.instances = 4;
  dist::FleetOptions fleet;
  fleet.workers = {options.socket_path};
  fleet.shards = 2;
  dist::FleetStats stats;
  const exp::BatchResult sharded = exp::run_batch_sharded(
      batch, {"csp2-dmc"}, /*time_limit_ms=*/20'000, fleet, &stats);
  EXPECT_EQ(sharded.instances.size(), 4u);
  EXPECT_EQ(stats.transport_failures, 0);
  EXPECT_EQ(stats.local_fallbacks, 0);

  {
    // One connection: a malformed payload (of a routed kind) and an unknown
    // kind are refused in the service's vocabulary, and the connection
    // stays open.
    support::Fd fd = support::connect_unix(options.socket_path);
    const auto round_trip = [&](const std::string& payload) {
      send_frame(fd, payload);
      std::string response;
      EXPECT_TRUE(recv_frame(fd, response, 5'000));
      return parse_message(response);
    };
    const Message malformed = round_trip("mgrts/1 shard\nno-blank-line\n");
    EXPECT_EQ(malformed.kind, "error");
    EXPECT_EQ(malformed.get("error-kind"), "protocol");
    Message unknown;
    unknown.kind = "frobnicate";
    const Message refused = round_trip(format_message(unknown));
    EXPECT_EQ(refused.kind, "error");
    EXPECT_EQ(refused.get("error-kind"), "protocol");
    Message ping;
    ping.kind = "ping";
    ping.set("id", "after-refusals");
    const Message pong = round_trip(format_message(ping));
    EXPECT_EQ(pong.kind, "pong");
    EXPECT_EQ(pong.get("id"), "after-refusals");
  }
  {
    Client client(options.socket_path);
    const Message health = client.health();
    EXPECT_EQ(health.kind, "health");
    EXPECT_EQ(health.get_int("solved"), 1);
    EXPECT_EQ(health.get_int("protocol-errors"), 2);
    EXPECT_EQ(health.get_int("shards"), 2);
    EXPECT_EQ(health.get_int("rows"), 4);
    EXPECT_EQ(health.get_int("aborted"), 0);
    EXPECT_EQ(health.get_int("refused"), 0);
  }

  server.stop();
}

}  // namespace
}  // namespace mgrts::serve
