#include "core/instance_io.hpp"

#include <array>
#include <charconv>
#include <istream>
#include <iterator>
#include <ostream>
#include <span>
#include <sstream>
#include <vector>

#include "support/error.hpp"

namespace mgrts::core {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw ParseError("instance line " + std::to_string(line) + ": " + message);
}

[[noreturn]] void fail_token(int line, std::string_view what,
                             std::string_view token, const char* why) {
  fail(line, std::string(what) + ": '" + std::string(token) + "' " + why);
}

/// The bytes a content line is trimmed of.
constexpr bool is_trim(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// The C locale's six whitespace bytes (' ', '\t', '\n', '\v', '\f',
/// '\r'): tokens split where istream extraction splits them.
constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// The content lines of an instance text: split on '\n' (the last line
/// needs no terminator), trimmed of " \t\r", blank and '#' lines skipped.
class Lines {
 public:
  explicit Lines(std::string_view text) : rest_(text) {}

  /// The next content line; false at the end of the text.
  bool next(std::string_view& line) {
    while (!rest_.empty()) {
      const std::size_t eol = rest_.find('\n');
      const std::string_view raw = rest_.substr(0, eol);
      rest_.remove_prefix(eol == std::string_view::npos ? rest_.size()
                                                        : eol + 1);
      ++number_;
      std::size_t first = 0;
      while (first < raw.size() && is_trim(raw[first])) ++first;
      if (first == raw.size() || raw[first] == '#') continue;
      std::size_t last = raw.size();
      while (is_trim(raw[last - 1])) --last;
      line = raw.substr(first, last - first);
      return true;
    }
    return false;
  }

  /// 1-based number of the last line read, content or not.
  [[nodiscard]] int number() const noexcept { return number_; }

 private:
  std::string_view rest_;
  int number_ = 0;
};

/// Cuts the next token off the front of `rest`; empty when none is left.
std::string_view next_token(std::string_view& rest) {
  std::size_t begin = 0;
  while (begin < rest.size() && is_space(rest[begin])) ++begin;
  std::size_t end = begin;
  while (end < rest.size() && !is_space(rest[end])) ++end;
  const std::string_view token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

/// Stores the first `out.size()` tokens of `line` in `out`; returns how
/// many tokens the line holds.
std::size_t split(std::string_view line, std::span<std::string_view> out) {
  std::size_t count = 0;
  for (std::string_view token = next_token(line); !token.empty();
       token = next_token(line)) {
    if (count < out.size()) out[count] = token;
    ++count;
  }
  return count;
}

/// Parses one strictly-integer token: an optional sign, then decimal
/// digits only.  Rejects floats ("1.5"), NaN/inf spellings, hex/octal
/// surprises, and values that do not fit std::int64_t.  Every path out is
/// a value or a ParseError.
std::int64_t parse_int_token(int line, std::string_view token,
                             std::string_view what) {
  std::size_t at = 0;
  if (at < token.size() && (token[at] == '+' || token[at] == '-')) ++at;
  if (at >= token.size()) fail_token(line, what, token, "is not a number");
  for (std::size_t i = at; i < token.size(); ++i) {
    if (token[i] < '0' || token[i] > '9') {
      fail_token(line, what, token, "is not a plain integer");
    }
  }
  // from_chars takes a leading '-' but not a '+'.
  const char* first = token.data() + (token[0] == '+' ? 1 : 0);
  std::int64_t value = 0;
  if (std::from_chars(first, token.data() + token.size(), value).ec !=
      std::errc()) {
    fail_token(line, what, token, "does not fit a 64-bit integer");
  }
  return value;
}

/// Magnitude cap on task parameters and rates.  Far above any meaningful
/// instance, far below where downstream products (C*T, hyperperiods, flow
/// capacities) can overflow before the dedicated OverflowError guards see
/// them.
constexpr std::int64_t kMaxMagnitude = 1'000'000'000'000'000;  // 1e15

/// Caps on counts, so a hostile header cannot buy a huge allocation with a
/// three-line file.  Tasks are capped at 100k (the largest generated
/// workloads are ~200 tasks); the rates block additionally caps the n*m
/// entry total.
constexpr std::int64_t kMaxTasks = 100'000;
constexpr std::int64_t kMaxProcessors = 100'000;
constexpr std::int64_t kMaxRateEntries = 4'000'000;

}  // namespace

InstanceFile read_instance(std::istream& in) {
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  return read_instance_string(text);
}

InstanceFile read_instance_string(std::string_view text) {
  Lines lines(text);
  std::string_view line;

  const auto expect_keyword_value = [&](std::string_view keyword) {
    std::array<std::string_view, 2> tokens;
    if (split(line, tokens) != 2 || tokens[0] != keyword) {
      fail(lines.number(), "expected '" + std::string(keyword) +
                               " <value>', got '" + std::string(line) + "'");
    }
    return parse_int_token(lines.number(), tokens[1], keyword);
  };

  if (!lines.next(line)) fail(lines.number(), "empty instance");
  const auto n = expect_keyword_value("tasks");
  if (n < 1 || n > kMaxTasks) {
    fail(lines.number(), "task count must be in [1, " +
                             std::to_string(kMaxTasks) + "], got " +
                             std::to_string(n));
  }

  std::vector<rt::Task> tasks;
  tasks.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    if (!lines.next(line)) fail(lines.number(), "missing task line");
    std::array<std::string_view, 4> tokens;
    if (split(line, tokens) != 4) {
      fail(lines.number(), "expected 'O C D T', got '" + std::string(line) +
                               "'");
    }
    rt::TaskParams p;
    p.offset = parse_int_token(lines.number(), tokens[0], "offset");
    p.wcet = parse_int_token(lines.number(), tokens[1], "WCET");
    p.deadline = parse_int_token(lines.number(), tokens[2], "deadline");
    p.period = parse_int_token(lines.number(), tokens[3], "period");
    for (const std::int64_t v : {p.offset, p.wcet, p.deadline, p.period}) {
      if (v < -kMaxMagnitude || v > kMaxMagnitude) {
        fail(lines.number(), "task parameter " + std::to_string(v) +
                                 " exceeds the 1e15 magnitude cap");
      }
    }
    tasks.push_back(rt::Task{p, {}});
  }

  if (!lines.next(line)) fail(lines.number(), "missing 'processors'");
  const auto m = expect_keyword_value("processors");
  if (m < 1 || m > kMaxProcessors) {
    fail(lines.number(), "processor count must be in [1, " +
                             std::to_string(kMaxProcessors) + "], got " +
                             std::to_string(m));
  }

  rt::DeadlineModel model = rt::DeadlineModel::kConstrained;
  bool have_rates = false;
  std::vector<std::vector<rt::Rate>> rates;

  while (lines.next(line)) {
    std::array<std::string_view, 2> tokens;
    const std::size_t count = split(line, tokens);
    // The trim keeps a lone '\v' or '\f', which holds no token.
    if (count == 0) {
      fail(lines.number(), "expected a directive, got '" + std::string(line) +
                               "'");
    }
    if (tokens[0] == "deadline-model") {
      if (count != 2) {
        fail(lines.number(), "expected 'deadline-model <value>', got '" +
                                 std::string(line) + "'");
      }
      if (tokens[1] == "constrained") {
        model = rt::DeadlineModel::kConstrained;
      } else if (tokens[1] == "arbitrary") {
        model = rt::DeadlineModel::kArbitrary;
      } else {
        fail(lines.number(),
             "unknown deadline-model '" + std::string(tokens[1]) + "'");
      }
    } else if (tokens[0] == "rates") {
      if (count != 1) {
        fail(lines.number(),
             "'rates' takes no argument, got '" + std::string(line) + "'");
      }
      if (have_rates) fail(lines.number(), "duplicate 'rates' block");
      have_rates = true;
      if (n * m > kMaxRateEntries) {
        fail(lines.number(), "rates block of " + std::to_string(n) + "x" +
                                 std::to_string(m) + " exceeds the " +
                                 std::to_string(kMaxRateEntries) +
                                 "-entry cap");
      }
      rates.reserve(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i) {
        if (!lines.next(line)) fail(lines.number(), "missing rate row");
        const std::size_t row_count = split(line, {});
        if (static_cast<std::int64_t>(row_count) != m) {
          fail(lines.number(), "expected " + std::to_string(m) +
                                   " rates in the row, got " +
                                   std::to_string(row_count));
        }
        std::vector<rt::Rate> row;
        row.reserve(static_cast<std::size_t>(m));
        for (std::string_view token = next_token(line); !token.empty();
             token = next_token(line)) {
          const std::int64_t s =
              parse_int_token(lines.number(), token, "rate");
          // rt::Rate is 32-bit; the cap keeps the cast exact.
          if (s < 0 || s > 1'000'000'000) {
            fail(lines.number(), "rate " + std::string(token) +
                                     " out of range [0, 1e9]");
          }
          row.push_back(static_cast<rt::Rate>(s));
        }
        rates.push_back(std::move(row));
      }
    } else {
      fail(lines.number(),
           "unknown directive '" + std::string(tokens[0]) + "'");
    }
  }

  // The contract is ParseError/ValidationError only; arithmetic-range
  // failures inside system construction surface as validation failures of
  // the input.
  try {
    InstanceFile file{
        rt::TaskSet(std::move(tasks), model),
        have_rates ? rt::Platform::heterogeneous(std::move(rates))
                   : rt::Platform::identical(static_cast<std::int32_t>(m))};
    return file;
  } catch (const OverflowError& e) {
    throw ValidationError(e.what());
  }
}

void write_instance(std::ostream& out, const rt::TaskSet& ts,
                    const rt::Platform& platform) {
  out << "# mgrts instance\n";
  out << "tasks " << ts.size() << "\n";
  out << "# O C D T\n";
  for (const auto& task : ts.tasks()) {
    out << task.offset() << ' ' << task.wcet() << ' ' << task.deadline() << ' '
        << task.period() << "\n";
  }
  out << "processors " << platform.processors() << "\n";
  if (!ts.is_constrained()) out << "deadline-model arbitrary\n";
  if (!platform.is_identical()) {
    out << "rates\n";
    for (rt::TaskId i = 0; i < ts.size(); ++i) {
      for (rt::ProcId j = 0; j < platform.processors(); ++j) {
        if (j != 0) out << ' ';
        out << platform.rate(i, j);
      }
      out << "\n";
    }
  }
}

std::string write_instance_string(const rt::TaskSet& ts,
                                  const rt::Platform& platform) {
  std::ostringstream out;
  write_instance(out, ts, platform);
  return out.str();
}

}  // namespace mgrts::core
