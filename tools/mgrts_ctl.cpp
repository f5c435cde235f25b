// mgrts_ctl — control CLI for the resident solver daemon.
//
//   mgrts_ctl [--socket PATH] ping
//   mgrts_ctl [--socket PATH] solve FILE [--timeout-ms MS] [--retries N]
//                                   [--method M] [--no-cache]
//   mgrts_ctl [--socket PATH] health
//   mgrts_ctl [--socket PATH] shutdown
//   mgrts_ctl [--socket PATH] smoke N
//
// `smoke N` drives the CI chaos job's scripted request mix — valid
// (feasible and infeasible), malformed, structurally invalid,
// deadline-starved and hostile-size requests, round-robin — and FAILS
// (exit 1) unless every single request receives a well-formed response
// with the expected tag.
// "Zero lost responses" is the whole acceptance criterion: with the
// daemon's fault injector armed, verdicts may degrade to unknown, but
// silence or a dropped connection is never acceptable.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/client.hpp"

namespace {

using mgrts::core::Verdict;
using mgrts::serve::Client;
using mgrts::serve::SolveParams;
using mgrts::serve::SolveResult;

struct SmokeCase {
  const char* label;
  const char* body;
  std::int64_t timeout_ms;  // -1: daemon default
  const char* expect;       // "ok", "error:parse", "error:validation"
  Verdict truth;            // kUnknown: no verdict to check
};

// The scripted mix.  Feasible/infeasible truths are certain (flow oracle on
// identical platforms, or the density proof), so even under injected
// faults a *decided* verdict that contradicts them is a smoke failure, not
// a degradation.  The hostile-size system has a ~9e8-slot hyperperiod: the
// flow oracle's size guard must refuse it before allocating, and the
// density fallback (2 <= m) decides it.  The blank-directive body ends in a
// line holding only '\v', which the line trim keeps and the tokenizer
// splits away: a parse refusal, never a dead daemon.
constexpr SmokeCase kMix[] = {
    {"feasible", "tasks 2\n0 1 2 2\n0 1 2 2\nprocessors 2\n", -1, "ok",
     Verdict::kFeasible},
    {"infeasible",
     "tasks 3\n0 2 2 2\n0 2 2 2\n0 2 2 2\nprocessors 1\n", -1, "ok",
     Verdict::kInfeasible},
    {"malformed", "tasks two\n0 1 2 2\n", -1, "error:parse",
     Verdict::kUnknown},
    {"invalid-system", "tasks 1\n0 0 2 4\nprocessors 1\n", -1,
     "error:validation", Verdict::kUnknown},
    {"deadline-starved", "tasks 2\n0 1 2 2\n0 1 2 2\nprocessors 2\n", 0,
     "ok", Verdict::kFeasible},
    {"hostile-size", "tasks 2\n0 1 1 30011\n0 1 1 29989\nprocessors 2\n",
     -1, "ok", Verdict::kFeasible},
    {"blank-directive", "tasks 1\n0 1 2 2\nprocessors 1\n\v\n", -1,
     "error:parse", Verdict::kUnknown},
};

int run_smoke(const std::string& socket_path, std::int64_t count) {
  std::int64_t sent = 0;
  std::int64_t answered = 0;
  std::int64_t expectation_misses = 0;
  std::int64_t wrong_verdicts = 0;
  std::int64_t degraded = 0;
  std::int64_t cache_hits = 0;

  for (std::int64_t i = 0; i < count; ++i) {
    const SmokeCase& c = kMix[static_cast<std::size_t>(i) % std::size(kMix)];
    ++sent;
    try {
      // Fresh connection per request: also exercises accept/close churn.
      Client client(socket_path);
      SolveParams params;
      params.id = std::string(c.label) + "#" + std::to_string(i);
      params.timeout_ms = c.timeout_ms;
      const SolveResult r = client.solve(c.body, params);
      ++answered;
      if (r.cache_hit) ++cache_hits;
      if (r.cause == mgrts::core::FailureCause::kMemory ||
          r.cause == mgrts::core::FailureCause::kInternalError ||
          r.cause == mgrts::core::FailureCause::kFaultInjected) {
        ++degraded;
      }

      const std::string expect = c.expect;
      if (expect == "ok") {
        if (!r.ok) {
          ++expectation_misses;
          std::fprintf(stderr, "smoke: %s answered error:%s (%s)\n",
                       params.id.c_str(), r.error_kind.c_str(),
                       r.detail.c_str());
          continue;
        }
        // Under chaos a decided verdict must still match the fault-free
        // truth; only degradation to a non-decisive verdict is tolerated.
        if (c.truth != Verdict::kUnknown &&
            mgrts::core::decisive(r.verdict, r.complete) &&
            r.verdict != c.truth) {
          ++wrong_verdicts;
          std::fprintf(stderr, "smoke: %s decided a wrong verdict\n",
                       params.id.c_str());
        }
      } else {
        const std::string got =
            r.ok ? std::string("ok") : "error:" + r.error_kind;
        if (got != expect) {
          ++expectation_misses;
          std::fprintf(stderr, "smoke: %s expected %s, got %s\n",
                       params.id.c_str(), expect.c_str(), got.c_str());
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "smoke: request %lld LOST: %s\n",
                   static_cast<long long>(i), e.what());
    }
  }

  std::printf(
      "smoke: %lld sent, %lld answered, %lld degraded, %lld cache hits, "
      "%lld expectation misses, %lld wrong verdicts\n",
      static_cast<long long>(sent), static_cast<long long>(answered),
      static_cast<long long>(degraded), static_cast<long long>(cache_hits),
      static_cast<long long>(expectation_misses),
      static_cast<long long>(wrong_verdicts));

  const bool pass =
      answered == sent && expectation_misses == 0 && wrong_verdicts == 0;
  std::printf("smoke: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

void print_message(const mgrts::serve::Message& message) {
  std::printf("%s\n", message.kind.c_str());
  for (const auto& [key, value] : message.headers) {
    std::printf("  %s %s\n", key.c_str(), value.c_str());
  }
  if (!message.body.empty()) std::printf("  -- %s\n", message.body.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "/tmp/mgrts.sock";
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);

  std::size_t pos = 0;
  if (pos + 1 < args.size() && args[pos] == "--socket") {
    socket_path = args[pos + 1];
    pos += 2;
  }
  if (pos >= args.size()) {
    std::fprintf(stderr,
                 "usage: mgrts_ctl [--socket PATH] "
                 "ping|solve|health|shutdown|smoke ...\n"
                 "  mgrts_serverd and mgrts_workerd run the same daemon:\n"
                 "  every command drives either socket\n");
    return 2;
  }
  const std::string command = args[pos++];

  try {
    if (command == "ping") {
      Client client(socket_path);
      const bool ok = client.ping();
      std::printf("%s\n", ok ? "pong" : "no pong");
      return ok ? 0 : 1;
    }
    if (command == "health") {
      Client client(socket_path);
      print_message(client.health());
      return 0;
    }
    if (command == "shutdown") {
      Client client(socket_path);
      client.shutdown();
      std::printf("bye\n");
      return 0;
    }
    if (command == "smoke") {
      if (pos >= args.size()) {
        std::fprintf(stderr, "mgrts_ctl: smoke needs a request count\n");
        return 2;
      }
      return run_smoke(socket_path, std::stoll(args[pos]));
    }
    if (command == "solve") {
      if (pos >= args.size()) {
        std::fprintf(stderr, "mgrts_ctl: solve needs a file (or '-')\n");
        return 2;
      }
      const std::string file = args[pos++];
      SolveParams params;
      while (pos < args.size()) {
        const std::string flag = args[pos++];
        const auto value = [&]() -> std::string {
          if (pos >= args.size()) {
            throw std::runtime_error(flag + " needs a value");
          }
          return args[pos++];
        };
        if (flag == "--timeout-ms") {
          params.timeout_ms = std::stoll(value());
        } else if (flag == "--retries") {
          params.retries = static_cast<std::int32_t>(std::stol(value()));
        } else if (flag == "--method") {
          params.method = value();
        } else if (flag == "--no-cache") {
          params.no_cache = true;
        } else {
          throw std::runtime_error("unknown solve flag '" + flag + "'");
        }
      }
      std::string text;
      if (file == "-") {
        std::ostringstream buffer;
        buffer << std::cin.rdbuf();
        text = buffer.str();
      } else {
        std::ifstream in(file);
        if (!in) {
          std::fprintf(stderr, "mgrts_ctl: cannot read '%s'\n", file.c_str());
          return 2;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        text = buffer.str();
      }
      Client client(socket_path);
      const SolveResult r = client.solve(text, params);
      if (!r.ok) {
        std::printf("error %s: %s\n", r.error_kind.c_str(), r.detail.c_str());
        return 1;
      }
      std::printf("verdict %s%s\n", mgrts::core::to_string(r.verdict),
                  r.complete ? "" : " (incomplete)");
      std::printf("cause %s\n", mgrts::core::to_string(r.cause));
      std::printf("decided-by %s%s\n", r.decided_by.c_str(),
                  r.cache_hit ? " (cache hit)" : "");
      return 0;
    }
    std::fprintf(stderr, "mgrts_ctl: unknown command '%s'\n", command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mgrts_ctl: %s\n", e.what());
    return 1;
  }
}
