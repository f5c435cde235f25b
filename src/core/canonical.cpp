#include "core/canonical.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <compare>
#include <functional>
#include <numeric>
#include <tuple>
#include <vector>

namespace mgrts::core {

namespace {

/// A task in canonical position: its (possibly scaled) parameters and the
/// task whose rate row it carries on a heterogeneous platform.
struct CanonicalTask {
  rt::TaskParams params;
  rt::TaskId source = 0;
};

/// (O, C, D, T) lexicographically, in one comparison chain.
std::strong_ordering compare_params(const rt::TaskParams& a,
                                    const rt::TaskParams& b) {
  return std::tie(a.offset, a.wcet, a.deadline, a.period) <=>
         std::tie(b.offset, b.wcet, b.deadline, b.period);
}

void append_int(std::string& out, std::int64_t value) {
  std::array<char, 20> digits;  // INT64_MIN is 20 characters
  const char* end =
      std::to_chars(digits.data(), digits.data() + digits.size(), value).ptr;
  out.append(digits.data(), static_cast<std::size_t>(end - digits.data()));
}

}  // namespace

std::string canonical_key(const rt::TaskSet& ts, const rt::Platform& platform,
                          const CanonicalOptions& options) {
  const std::int32_t n = ts.size();
  const std::int32_t m = platform.processors();
  const bool heterogeneous = !platform.is_identical() && platform.rate_rows() > 0;

  std::vector<CanonicalTask> tasks(static_cast<std::size_t>(n));
  for (rt::TaskId i = 0; i < n; ++i) {
    tasks[static_cast<std::size_t>(i)] = CanonicalTask{ts[i].params, i};
  }

  // gcd scaling: identical platforms only (the flow-condition argument in
  // the header does not cover rate matrices).  gcd(0, x) == x, so zero
  // offsets do not pin g at 1; once g is 1 it stays 1.
  if (options.scaling && platform.is_identical()) {
    rt::Time g = 0;
    for (const CanonicalTask& t : tasks) {
      g = std::gcd(g, t.params.offset);
      g = std::gcd(g, t.params.wcet);
      g = std::gcd(g, t.params.deadline);
      g = std::gcd(g, t.params.period);
      if (g == 1) break;
    }
    if (g > 1) {
      for (CanonicalTask& t : tasks) {
        t.params.offset /= g;
        t.params.wcet /= g;
        t.params.deadline /= g;
        t.params.period /= g;
      }
    }
  }

  // Parameters first, then (heterogeneous platforms only) the rate rows.
  if (options.permutation) {
    std::sort(tasks.begin(), tasks.end(),
              [&](const CanonicalTask& a, const CanonicalTask& b) {
                if (const auto order = compare_params(a.params, b.params);
                    order != 0) {
                  return order < 0;
                }
                for (rt::ProcId j = 0; heterogeneous && j < m; ++j) {
                  const rt::Rate x = platform.rate(a.source, j);
                  const rt::Rate y = platform.rate(b.source, j);
                  if (x != y) return x < y;
                }
                return false;
              });
  }

  std::string key;
  key.reserve(32 + 16 * tasks.size());
  key += "v1|";
  key += ts.is_constrained() ? "c|" : "a|";

  if (platform.is_identical()) {
    key += "id:";
    append_int(key, m);
  } else if (platform.rate_rows() == 0) {
    // Uniform platform: a speed per processor, task-independent, so the
    // speed *multiset* is the canonical form.
    std::vector<rt::Rate> speeds;
    speeds.reserve(static_cast<std::size_t>(m));
    for (rt::ProcId j = 0; j < m; ++j) speeds.push_back(platform.rate(0, j));
    if (options.permutation) {
      std::sort(speeds.begin(), speeds.end(), std::greater<>());
    }
    key += "un:";
    for (std::size_t j = 0; j < speeds.size(); ++j) {
      if (j != 0) key += ',';
      append_int(key, speeds[j]);
    }
  } else {
    // Heterogeneous: rate rows are serialized inline with their tasks
    // below; here only the column count.
    key += "he:";
    append_int(key, m);
  }

  key += '|';
  for (std::size_t k = 0; k < tasks.size(); ++k) {
    if (k != 0) key += ';';
    const rt::TaskParams& p = tasks[k].params;
    append_int(key, p.offset);
    key += ',';
    append_int(key, p.wcet);
    key += ',';
    append_int(key, p.deadline);
    key += ',';
    append_int(key, p.period);
    for (rt::ProcId j = 0; heterogeneous && j < m; ++j) {
      key += ':';
      append_int(key, platform.rate(tasks[k].source, j));
    }
  }
  return key;
}

}  // namespace mgrts::core
