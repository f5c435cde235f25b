// Reference instance parser and canonical key for differential tests.
//
// The straightforward implementations the production code
// (core/instance_io.cpp, core/canonical.cpp) is checked against: an
// istream reader that splits lines with std::getline and tokens with
// operator>>, converts integers with std::stoll, and a canonical key built
// from std::to_string pieces over tuple-sorted task copies.  The parser
// differs from its original form in one guard only: a directive line that
// holds no token (say, a lone '\v', which the " \t\r" trim keeps but
// operator>> splits away) is a ParseError instead of a read of an empty
// vector.  Same format, independent code: every input must give the same
// InstanceFile or the same exception type and message, and every key must
// match byte for byte.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <istream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/canonical.hpp"
#include "core/instance_io.hpp"
#include "support/error.hpp"

namespace mgrts::core::reference {

namespace detail {

[[noreturn]] inline void fail(int line, const std::string& message) {
  throw ParseError("instance line " + std::to_string(line) + ": " + message);
}

/// Reads the next content line (skipping blanks/comments); returns false at
/// end of stream.
inline bool next_line(std::istream& in, std::string& out, int& line_no) {
  std::string raw;
  while (std::getline(in, raw)) {
    ++line_no;
    const auto first = raw.find_first_not_of(" \t\r");
    if (first == std::string::npos || raw[first] == '#') continue;
    const auto last = raw.find_last_not_of(" \t\r");
    out = raw.substr(first, last - first + 1);
    return true;
  }
  return false;
}

inline std::int64_t parse_int_token(int line, const std::string& token,
                                    const std::string& what) {
  std::size_t at = 0;
  if (at < token.size() && (token[at] == '+' || token[at] == '-')) ++at;
  if (at >= token.size()) fail(line, what + ": '" + token + "' is not a number");
  for (std::size_t i = at; i < token.size(); ++i) {
    if (token[i] < '0' || token[i] > '9') {
      fail(line, what + ": '" + token + "' is not a plain integer");
    }
  }
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(token, &used);
    if (used != token.size()) {
      fail(line, what + ": trailing characters in '" + token + "'");
    }
    return value;
  } catch (const std::out_of_range&) {
    fail(line, what + ": '" + token + "' does not fit a 64-bit integer");
  } catch (const std::invalid_argument&) {
    fail(line, what + ": '" + token + "' is not a number");
  }
}

inline std::vector<std::string> tokens_of(const std::string& text) {
  std::vector<std::string> tokens;
  std::istringstream ss(text);
  std::string token;
  while (ss >> token) tokens.push_back(std::move(token));
  return tokens;
}

constexpr std::int64_t kMaxMagnitude = 1'000'000'000'000'000;  // 1e15
constexpr std::int64_t kMaxTasks = 100'000;
constexpr std::int64_t kMaxProcessors = 100'000;
constexpr std::int64_t kMaxRateEntries = 4'000'000;

}  // namespace detail

inline InstanceFile read_instance(std::istream& in) {
  using detail::fail;
  using detail::next_line;
  using detail::parse_int_token;
  using detail::tokens_of;
  int line_no = 0;
  std::string line;

  auto expect_keyword_value = [&](const std::string& text,
                                  const std::string& keyword) {
    const auto tokens = tokens_of(text);
    if (tokens.size() != 2 || tokens[0] != keyword) {
      fail(line_no, "expected '" + keyword + " <value>', got '" + text + "'");
    }
    return parse_int_token(line_no, tokens[1], keyword);
  };

  if (!next_line(in, line, line_no)) fail(line_no, "empty instance");
  const auto n = expect_keyword_value(line, "tasks");
  if (n < 1 || n > detail::kMaxTasks) {
    fail(line_no, "task count must be in [1, " +
                      std::to_string(detail::kMaxTasks) + "], got " +
                      std::to_string(n));
  }

  std::vector<rt::TaskParams> params;
  params.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    if (!next_line(in, line, line_no)) fail(line_no, "missing task line");
    const auto tokens = tokens_of(line);
    if (tokens.size() != 4) {
      fail(line_no, "expected 'O C D T', got '" + line + "'");
    }
    rt::TaskParams p;
    p.offset = parse_int_token(line_no, tokens[0], "offset");
    p.wcet = parse_int_token(line_no, tokens[1], "WCET");
    p.deadline = parse_int_token(line_no, tokens[2], "deadline");
    p.period = parse_int_token(line_no, tokens[3], "period");
    for (const std::int64_t v : {p.offset, p.wcet, p.deadline, p.period}) {
      if (v < -detail::kMaxMagnitude || v > detail::kMaxMagnitude) {
        fail(line_no, "task parameter " + std::to_string(v) +
                          " exceeds the 1e15 magnitude cap");
      }
    }
    params.push_back(p);
  }

  if (!next_line(in, line, line_no)) fail(line_no, "missing 'processors'");
  const auto m = expect_keyword_value(line, "processors");
  if (m < 1 || m > detail::kMaxProcessors) {
    fail(line_no, "processor count must be in [1, " +
                      std::to_string(detail::kMaxProcessors) + "], got " +
                      std::to_string(m));
  }

  rt::DeadlineModel model = rt::DeadlineModel::kConstrained;
  bool have_rates = false;
  std::vector<std::vector<rt::Rate>> rates;

  while (next_line(in, line, line_no)) {
    const auto tokens = tokens_of(line);
    // The one change from the original reader: it read tokens.front() of
    // an empty vector here.
    if (tokens.empty()) {
      fail(line_no, "expected a directive, got '" + line + "'");
    }
    const std::string& word = tokens.front();
    if (word == "deadline-model") {
      if (tokens.size() != 2) {
        fail(line_no, "expected 'deadline-model <value>', got '" + line + "'");
      }
      if (tokens[1] == "constrained") {
        model = rt::DeadlineModel::kConstrained;
      } else if (tokens[1] == "arbitrary") {
        model = rt::DeadlineModel::kArbitrary;
      } else {
        fail(line_no, "unknown deadline-model '" + tokens[1] + "'");
      }
    } else if (word == "rates") {
      if (tokens.size() != 1) {
        fail(line_no, "'rates' takes no argument, got '" + line + "'");
      }
      if (have_rates) fail(line_no, "duplicate 'rates' block");
      have_rates = true;
      if (n * m > detail::kMaxRateEntries) {
        fail(line_no, "rates block of " + std::to_string(n) + "x" +
                          std::to_string(m) + " exceeds the " +
                          std::to_string(detail::kMaxRateEntries) +
                          "-entry cap");
      }
      rates.reserve(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i) {
        if (!next_line(in, line, line_no)) fail(line_no, "missing rate row");
        const auto row_tokens = tokens_of(line);
        if (static_cast<std::int64_t>(row_tokens.size()) != m) {
          fail(line_no, "expected " + std::to_string(m) +
                            " rates in the row, got " +
                            std::to_string(row_tokens.size()));
        }
        std::vector<rt::Rate> r;
        r.reserve(static_cast<std::size_t>(m));
        for (const std::string& token : row_tokens) {
          const std::int64_t s = parse_int_token(line_no, token, "rate");
          if (s < 0 || s > 1'000'000'000) {
            fail(line_no, "rate " + token + " out of range [0, 1e9]");
          }
          r.push_back(static_cast<rt::Rate>(s));
        }
        rates.push_back(std::move(r));
      }
    } else {
      fail(line_no, "unknown directive '" + word + "'");
    }
  }

  try {
    InstanceFile file{
        rt::TaskSet::from_params(params, model),
        have_rates ? rt::Platform::heterogeneous(std::move(rates))
                   : rt::Platform::identical(static_cast<std::int32_t>(m))};
    return file;
  } catch (const OverflowError& e) {
    throw ValidationError(e.what());
  }
}

inline InstanceFile read_instance_string(const std::string& text) {
  std::istringstream in(text);
  return read_instance(in);
}

namespace detail {

struct CanonicalTask {
  rt::TaskParams params;
  std::vector<rt::Rate> row;

  [[nodiscard]] friend bool operator<(const CanonicalTask& a,
                                      const CanonicalTask& b) {
    const auto key = [](const CanonicalTask& t) {
      return std::tuple(t.params.offset, t.params.wcet, t.params.deadline,
                        t.params.period);
    };
    if (key(a) != key(b)) return key(a) < key(b);
    return a.row < b.row;
  }
};

inline void append_params(std::string& out, const rt::TaskParams& p) {
  out += std::to_string(p.offset);
  out += ',';
  out += std::to_string(p.wcet);
  out += ',';
  out += std::to_string(p.deadline);
  out += ',';
  out += std::to_string(p.period);
}

}  // namespace detail

inline std::string canonical_key(const rt::TaskSet& ts,
                                 const rt::Platform& platform,
                                 const CanonicalOptions& options = {}) {
  const std::int32_t n = ts.size();
  const std::int32_t m = platform.processors();

  std::vector<detail::CanonicalTask> tasks;
  tasks.reserve(static_cast<std::size_t>(n));
  const bool heterogeneous =
      !platform.is_identical() && platform.rate_rows() > 0;
  for (rt::TaskId i = 0; i < n; ++i) {
    detail::CanonicalTask t;
    t.params = ts[i].params;
    if (heterogeneous) {
      t.row.reserve(static_cast<std::size_t>(m));
      for (rt::ProcId j = 0; j < m; ++j) t.row.push_back(platform.rate(i, j));
    }
    tasks.push_back(std::move(t));
  }

  if (options.scaling && platform.is_identical()) {
    rt::Time g = 0;
    for (const detail::CanonicalTask& t : tasks) {
      g = std::gcd(g, t.params.offset);
      g = std::gcd(g, t.params.wcet);
      g = std::gcd(g, t.params.deadline);
      g = std::gcd(g, t.params.period);
    }
    if (g > 1) {
      for (detail::CanonicalTask& t : tasks) {
        t.params.offset /= g;
        t.params.wcet /= g;
        t.params.deadline /= g;
        t.params.period /= g;
      }
    }
  }

  if (options.permutation) std::sort(tasks.begin(), tasks.end());

  std::string key = "v1|";
  key += ts.is_constrained() ? "c|" : "a|";

  if (platform.is_identical()) {
    key += "id:" + std::to_string(m);
  } else if (platform.rate_rows() == 0) {
    std::vector<rt::Rate> speeds;
    speeds.reserve(static_cast<std::size_t>(m));
    for (rt::ProcId j = 0; j < m; ++j) speeds.push_back(platform.rate(0, j));
    if (options.permutation) {
      std::sort(speeds.begin(), speeds.end(), std::greater<>());
    }
    key += "un:";
    for (std::size_t j = 0; j < speeds.size(); ++j) {
      if (j != 0) key += ',';
      key += std::to_string(speeds[j]);
    }
  } else {
    key += "he:" + std::to_string(m);
  }

  key += '|';
  for (std::size_t k = 0; k < tasks.size(); ++k) {
    if (k != 0) key += ';';
    detail::append_params(key, tasks[k].params);
    for (const rt::Rate rate : tasks[k].row) {
      key += ':';
      key += std::to_string(rate);
    }
  }
  return key;
}

}  // namespace mgrts::core::reference
