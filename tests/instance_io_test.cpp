// Hostile-input corpus for core::instance_io (the daemon's parse surface).
//
// Contract under test: read_instance_string throws ParseError (malformed
// text) or ValidationError (well-formed text describing an invalid system)
// — and NOTHING else.  No std::bad_alloc from a corrupt count, no silent
// truncation of float-ish tokens, no istream quirk accepted as data.  Each
// corpus entry pins the diagnostic substring so error messages stay
// line-referenced and actionable.
//
// A deterministic mutation loop then checks the one-pass parser and the
// canonical key against the istream reference (instance_io_reference.hpp):
// same instance or same exception type and message, and byte-identical
// keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/canonical.hpp"
#include "core/instance_io.hpp"
#include "gen/generator.hpp"
#include "instance_io_reference.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace mgrts {
namespace {

struct BadCase {
  const char* label;
  std::string text;
  const char* diagnostic;  // substring the error message must carry
};

std::string valid_header(const std::string& tasks_line) {
  return tasks_line + "\n0 1 2 2\nprocessors 1\n";
}

// ------------------------------------------------------------- ParseError

const std::vector<BadCase>& parse_corpus() {
  static const std::vector<BadCase> corpus = {
      {"empty", "", "empty instance"},
      {"comments-only", "# nothing\n\n   \n# here\n", "empty instance"},
      {"missing-tasks-keyword", "processors 2\n", "expected 'tasks <value>'"},
      {"tasks-word-count", "tasks two\n", "not a plain integer"},
      {"tasks-float", valid_header("tasks 1.0"), "not a plain integer"},
      {"tasks-trailing", "tasks 1 junk\n0 1 2 2\nprocessors 1\n",
       "expected 'tasks <value>'"},
      {"tasks-zero", "tasks 0\nprocessors 1\n", "task count must be in"},
      {"tasks-negative", "tasks -3\n", "task count must be in"},
      {"tasks-absurd", "tasks 99999999\n", "task count must be in"},
      {"tasks-overflow", "tasks 99999999999999999999\n",
       "does not fit a 64-bit integer"},
      {"missing-task-line", "tasks 2\n0 1 2 2\n", "missing task line"},
      {"task-too-few-fields", "tasks 1\n0 1 2\nprocessors 1\n",
       "expected 'O C D T'"},
      {"task-trailing-token", "tasks 1\n0 1 2 2 9\nprocessors 1\n",
       "expected 'O C D T'"},
      {"task-float-wcet", "tasks 1\n0 1.5 2 2\nprocessors 1\n",
       "not a plain integer"},
      {"task-nan", "tasks 1\n0 nan 2 2\nprocessors 1\n", "not a plain integer"},
      {"task-inf", "tasks 1\n0 inf 2 2\nprocessors 1\n", "not a plain integer"},
      {"task-hex", "tasks 1\n0 0x10 2 2\nprocessors 1\n",
       "not a plain integer"},
      {"task-overflow", "tasks 1\n0 1 2 99999999999999999999\nprocessors 1\n",
       "does not fit a 64-bit integer"},
      {"task-magnitude", "tasks 1\n0 1 2 9999999999999999\nprocessors 1\n",
       "magnitude cap"},
      {"missing-processors", "tasks 1\n0 1 2 2\n", "missing 'processors'"},
      {"processors-zero", "tasks 1\n0 1 2 2\nprocessors 0\n",
       "processor count must be in"},
      {"processors-negative", "tasks 1\n0 1 2 2\nprocessors -1\n",
       "processor count must be in"},
      {"processors-absurd", "tasks 1\n0 1 2 2\nprocessors 2000000\n",
       "processor count must be in"},
      {"unknown-directive", "tasks 1\n0 1 2 2\nprocessors 1\nbogus 3\n",
       "unknown directive"},
      {"deadline-model-unknown",
       "tasks 1\n0 1 2 2\nprocessors 1\ndeadline-model sometimes\n",
       "unknown deadline-model"},
      {"deadline-model-trailing",
       "tasks 1\n0 1 2 2\nprocessors 1\ndeadline-model constrained x\n",
       "expected 'deadline-model <value>'"},
      {"rates-takes-no-arg",
       "tasks 1\n0 1 2 2\nprocessors 1\nrates 3\n1\n", "takes no argument"},
      {"rates-missing-row", "tasks 2\n0 1 2 2\n0 1 2 2\nprocessors 1\nrates\n1\n",
       "missing rate row"},
      {"rates-short-row",
       "tasks 1\n0 1 2 2\nprocessors 2\nrates\n1\n", "expected 2 rates"},
      {"rates-long-row",
       "tasks 1\n0 1 2 2\nprocessors 2\nrates\n1 2 3\n", "expected 2 rates"},
      {"rates-negative",
       "tasks 1\n0 1 2 2\nprocessors 1\nrates\n-1\n", "out of range"},
      {"rates-float",
       "tasks 1\n0 1 2 2\nprocessors 1\nrates\n1.5\n", "not a plain integer"},
      {"rates-overflow-rate",
       "tasks 1\n0 1 2 2\nprocessors 1\nrates\n4000000000\n", "out of range"},
      {"rates-duplicate",
       "tasks 1\n0 1 2 2\nprocessors 1\nrates\n1\nrates\n1\n",
       "duplicate 'rates'"},
      // The line trim keeps '\v' and '\f'; the tokenizer splits them
      // away, leaving a directive line with no token.
      {"vtab-directive", "tasks 1\n0 1 2 2\nprocessors 1\n\v\n",
       "instance line 4: expected a directive"},
      {"formfeed-directive", "tasks 1\n0 1 2 2\nprocessors 1\n \f\t\n",
       "instance line 4: expected a directive"},
  };
  return corpus;
}

TEST(InstanceIoHostile, ParseCorpusThrowsParseErrorWithDiagnostic) {
  for (const BadCase& bad : parse_corpus()) {
    SCOPED_TRACE(bad.label);
    try {
      (void)core::read_instance_string(bad.text);
      FAIL() << bad.label << ": accepted malformed input";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(bad.diagnostic), std::string::npos)
          << "diagnostic was: " << e.what();
      // Line-referenced, so a user can find the offending line.
      EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
    } catch (const std::exception& e) {
      FAIL() << bad.label << ": wrong exception type: " << e.what();
    }
  }
}

// -------------------------------------------------------- ValidationError

const std::vector<BadCase>& validation_corpus() {
  static const std::vector<BadCase> corpus = {
      {"wcet-zero", "tasks 1\n0 0 2 4\nprocessors 1\n", "WCET"},
      {"wcet-negative", "tasks 1\n0 -2 2 4\nprocessors 1\n", "WCET"},
      {"period-zero", "tasks 1\n0 1 2 0\nprocessors 1\n", "period"},
      {"deadline-negative", "tasks 1\n0 1 -5 4\nprocessors 1\n", "deadline"},
      {"offset-negative", "tasks 1\n-1 1 2 4\nprocessors 1\n", "offset"},
      {"offset-beyond-period", "tasks 1\n5 1 2 4\nprocessors 1\n", "offset"},
      {"constrained-d-gt-t", "tasks 1\n0 1 9 4\nprocessors 1\n",
       "constrained-deadline"},
  };
  return corpus;
}

TEST(InstanceIoHostile, ValidationCorpusThrowsValidationError) {
  for (const BadCase& bad : validation_corpus()) {
    SCOPED_TRACE(bad.label);
    try {
      (void)core::read_instance_string(bad.text);
      FAIL() << bad.label << ": accepted invalid system";
    } catch (const ValidationError& e) {
      EXPECT_NE(std::string(e.what()).find(bad.diagnostic), std::string::npos)
          << "diagnostic was: " << e.what();
    } catch (const std::exception& e) {
      FAIL() << bad.label << ": wrong exception type: " << e.what();
    }
  }
}

// Nothing but ParseError/ValidationError escapes, whatever the bytes.
TEST(InstanceIoHostile, ArbitraryGarbageNeverEscapesTheContract) {
  const std::string garbage_cases[] = {
      std::string(1000, '\0'),
      "tasks 1\n\x01\x02\x03\x04\nprocessors 1\n",
      "\xff\xfe tasks 1",
      "tasks\n",
      "rates\nrates\nrates\n",
      std::string("tasks 1\n0 1 2 2\nprocessors 1\n") + std::string(64, '#'),
  };
  for (const std::string& text : garbage_cases) {
    try {
      (void)core::read_instance_string(text);
      // Accepting is fine only if the tail case (valid + comment) parsed.
    } catch (const ParseError&) {
    } catch (const ValidationError&) {
    } catch (const std::exception& e) {
      FAIL() << "contract breach: " << e.what();
    }
  }
}

// A hostile count must not buy an allocation: huge 'tasks' headers with no
// body fail fast by range check, not by reserve().
TEST(InstanceIoHostile, CorruptCountsCostNothing) {
  EXPECT_THROW((void)core::read_instance_string("tasks 1000000000\n"),
               ParseError);
  EXPECT_THROW((void)core::read_instance_string(
                   "tasks 100\n" /* no task lines */),
               ParseError);
  // n*m cap on the rates block: 100k tasks x 100k processors would be 1e10
  // entries; rejected before any row is read.
  std::string big = "tasks 2\n0 1 2 2\n0 1 2 2\nprocessors 100000\nrates\n";
  // 2 x 100000 = 200k entries is fine; push beyond the cap via tasks.
  EXPECT_THROW((void)core::read_instance_string(big), ParseError);  // rows missing
}

// ------------------------------------------------------------ round trips

TEST(InstanceIoRoundTrip, IdenticalPlatform) {
  const std::string text =
      "tasks 3\n0 1 2 2\n1 3 4 4\n0 2 2 3\nprocessors 2\n";
  const core::InstanceFile parsed = core::read_instance_string(text);
  const std::string written =
      core::write_instance_string(parsed.tasks, parsed.platform);
  const core::InstanceFile reparsed = core::read_instance_string(written);
  EXPECT_EQ(reparsed.tasks.size(), 3);
  EXPECT_EQ(reparsed.platform.processors(), 2);
  EXPECT_TRUE(reparsed.platform.is_identical());
  for (rt::TaskId i = 0; i < 3; ++i) {
    EXPECT_EQ(reparsed.tasks[i].params.wcet, parsed.tasks[i].params.wcet);
    EXPECT_EQ(reparsed.tasks[i].params.period, parsed.tasks[i].params.period);
  }
}

TEST(InstanceIoRoundTrip, HeterogeneousRatesAndArbitraryDeadlines) {
  const std::string text =
      "tasks 2\n0 1 5 4\n0 2 2 3\nprocessors 2\n"
      "deadline-model arbitrary\nrates\n1 0\n1 2\n";
  const core::InstanceFile parsed = core::read_instance_string(text);
  EXPECT_FALSE(parsed.tasks.is_constrained());
  EXPECT_FALSE(parsed.platform.is_identical());
  const std::string written =
      core::write_instance_string(parsed.tasks, parsed.platform);
  const core::InstanceFile reparsed = core::read_instance_string(written);
  EXPECT_EQ(reparsed.platform.rate(0, 1), 0);
  EXPECT_EQ(reparsed.platform.rate(1, 1), 2);
  EXPECT_FALSE(reparsed.tasks.is_constrained());
}

// --------------------------------------------- differential vs reference

/// What a parser made of one text: an instance, or the exception's type
/// and message.
struct Outcome {
  std::string error;  // empty when the text parsed
  std::optional<core::InstanceFile> file;
};

template <typename Parse>
Outcome outcome_of(const Parse& parse, const std::string& text) {
  try {
    return {"", parse(text)};
  } catch (const ParseError& e) {
    return {std::string("ParseError: ") + e.what(), std::nullopt};
  } catch (const ValidationError& e) {
    return {std::string("ValidationError: ") + e.what(), std::nullopt};
  } catch (const std::exception& e) {
    return {std::string("contract breach: ") + e.what(), std::nullopt};
  }
}

/// Task parameters and names, deadline model, platform class and rates.
bool same_instance(const core::InstanceFile& a, const core::InstanceFile& b) {
  if (a.tasks.size() != b.tasks.size() || a.tasks.model() != b.tasks.model()) {
    return false;
  }
  for (rt::TaskId i = 0; i < a.tasks.size(); ++i) {
    if (a.tasks[i].params != b.tasks[i].params ||
        a.tasks[i].name != b.tasks[i].name) {
      return false;
    }
  }
  const rt::Platform& p = a.platform;
  const rt::Platform& q = b.platform;
  if (p.processors() != q.processors() ||
      p.is_identical() != q.is_identical() || p.rate_rows() != q.rate_rows()) {
    return false;
  }
  for (rt::TaskId i = 0; i < p.rate_rows(); ++i) {
    for (rt::ProcId j = 0; j < p.processors(); ++j) {
      if (p.rate(i, j) != q.rate(i, j)) return false;
    }
  }
  return true;
}

bool same_outcome(const Outcome& a, const Outcome& b) {
  return a.error == b.error && a.file.has_value() == b.file.has_value() &&
         (!a.file || same_instance(*a.file, *b.file));
}

/// The text with every byte outside printable ASCII spelled as \xNN.
std::string escaped(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c >= ' ' && c <= '~' && c != '\\') {
      out += c;
    } else {
      char hex[8];
      std::snprintf(hex, sizeof hex, "\\x%02x", static_cast<unsigned char>(c));
      out += hex;
    }
  }
  return out;
}

/// A small random system.  Some tasks repeat an earlier task's parameters,
/// so the key's tie-break on rate rows is reached.
rt::TaskSet random_tasks(support::Rng& rng, rt::DeadlineModel model) {
  const std::int64_t n = rng.uniform(1, 7);
  std::vector<rt::TaskParams> params;
  for (std::int64_t i = 0; i < n; ++i) {
    if (i > 0 && rng.chance(0.25)) {
      params.push_back(params[static_cast<std::size_t>(rng.uniform(0, i - 1))]);
      continue;
    }
    rt::TaskParams p;
    p.period = rng.uniform(1, 9);
    p.offset = rng.uniform(0, p.period - 1);
    p.deadline = model == rt::DeadlineModel::kArbitrary
                     ? rng.uniform(1, 2 * p.period + 1)
                     : rng.uniform(1, p.period);
    p.wcet = rng.uniform(1, p.deadline);
    params.push_back(p);
  }
  return rt::TaskSet::from_params(params, model);
}

enum class PlatformKind { kIdentical, kUniform, kHeterogeneous };

std::vector<std::vector<rt::Rate>> rate_rows(const rt::Platform& platform,
                                             rt::TaskId n) {
  std::vector<std::vector<rt::Rate>> rows(static_cast<std::size_t>(n));
  for (rt::TaskId i = 0; i < n; ++i) {
    for (rt::ProcId j = 0; j < platform.processors(); ++j) {
      rows[static_cast<std::size_t>(i)].push_back(platform.rate(i, j));
    }
  }
  return rows;
}

rt::Platform random_platform(support::Rng& rng, PlatformKind kind,
                             rt::TaskId n) {
  const auto m = static_cast<std::int32_t>(rng.uniform(1, 4));
  std::vector<std::vector<rt::Rate>> rows(
      kind == PlatformKind::kUniform ? 1 : static_cast<std::size_t>(n));
  for (auto& row : rows) {
    for (std::int32_t j = 0; j < m; ++j) {
      row.push_back(static_cast<rt::Rate>(rng.uniform(0, 3)));
    }
  }
  switch (kind) {
    case PlatformKind::kIdentical:
      return rt::Platform::identical(m);
    case PlatformKind::kUniform:
      return rt::Platform::uniform(rows.front());
    case PlatformKind::kHeterogeneous:
      break;
  }
  return rt::Platform::heterogeneous(std::move(rows));
}

gen::GeneratorOptions table1_options() {
  gen::GeneratorOptions options;
  options.tasks = 10;
  options.processors = 5;
  options.rule = gen::ProcessorRule::kFixed;
  options.t_max = 7;
  return options;
}

/// Seeds of the mutation loop that parse: Table-I texts, and generated
/// texts with `rates` blocks and `deadline-model arbitrary`.
std::vector<std::string> valid_seeds() {
  std::vector<std::string> seeds;
  for (std::uint64_t k = 0; k < 6; ++k) {
    const gen::Instance inst = gen::generate_indexed(table1_options(), 1, k);
    seeds.push_back(core::write_instance_string(
        inst.tasks, rt::Platform::identical(inst.processors)));
  }
  support::Rng rng(11);
  for (int k = 0; k < 12; ++k) {
    const rt::TaskSet tasks = random_tasks(
        rng, k % 2 == 0 ? rt::DeadlineModel::kArbitrary
                        : rt::DeadlineModel::kConstrained);
    const auto kind = static_cast<PlatformKind>(k % 3);
    seeds.push_back(core::write_instance_string(
        tasks, random_platform(rng, kind, tasks.size())));
  }
  return seeds;
}

/// The hostile corpora's texts.
std::vector<std::string> hostile_seeds() {
  std::vector<std::string> seeds;
  for (const BadCase& bad : parse_corpus()) seeds.push_back(bad.text);
  for (const BadCase& bad : validation_corpus()) seeds.push_back(bad.text);
  return seeds;
}

/// Byte edits draw from every whitespace kind, NUL, '#', signs and digits.
constexpr std::string_view kEditBytes = {" \t\n\v\f\r\0#+-0123456789", 20};

/// Tokens inserted whole: directives, and integers at and past each cap
/// and at and past 2^63.
constexpr std::string_view kEditTokens[] = {
    "tasks ",         "processors ",        "rates",
    "deadline-model ", "arbitrary",          "constrained",
    "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "-9223372036854775809", "99999999999999999999", "1000000000000000",
    "1000000000000001", "-1000000000000001", "1000000000",
    "1000000001",     "4000000000",          "100000",
    "100001",         "+7",                  "-0",
};

void mutate(std::string& text, support::Rng& rng) {
  const auto pick = [&](std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(size) - 1));
  };
  const auto edit_byte = [&] {
    return rng.chance(0.1) ? static_cast<char>(rng.uniform(0, 255))
                           : kEditBytes[pick(kEditBytes.size())];
  };
  // Line boundaries: [start, end) of the line holding byte `at`.
  const auto line_of = [&](std::size_t at) {
    const std::size_t start = text.rfind('\n', at == 0 ? 0 : at - 1);
    const std::size_t begin =
        start == std::string::npos || at == 0 ? 0 : start + 1;
    const std::size_t end = text.find('\n', at);
    return std::pair(begin,
                     end == std::string::npos ? text.size() : end + 1);
  };
  switch (rng.uniform(0, 7)) {
    case 0:  // replace a byte
      if (!text.empty()) text[pick(text.size())] = edit_byte();
      break;
    case 1:  // insert a byte
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                     pick(text.size() + 1)),
                  edit_byte());
      break;
    case 2:  // delete a byte
      if (!text.empty()) text.erase(pick(text.size()), 1);
      break;
    case 3: {  // a digit run past 2^63 in place of one of the text's runs
      const std::size_t at = text.find_first_of("0123456789",
                                                pick(text.size() + 1));
      if (at == std::string::npos) break;
      const std::size_t end = text.find_first_not_of("0123456789", at);
      text.replace(at, (end == std::string::npos ? text.size() : end) - at,
                   std::string(static_cast<std::size_t>(rng.uniform(19, 24)),
                               static_cast<char>('1' + rng.uniform(0, 8))));
      break;
    }
    case 4:  // insert a whole token
      text.insert(pick(text.size() + 1),
                  std::string(kEditTokens[pick(std::size(kEditTokens))]));
      break;
    case 5: {  // duplicate a line
      if (text.empty()) break;
      const auto [begin, end] = line_of(pick(text.size()));
      text.insert(begin, text.substr(begin, end - begin));
      break;
    }
    case 6: {  // delete a line
      if (text.empty()) break;
      const auto [begin, end] = line_of(pick(text.size()));
      text.erase(begin, end - begin);
      break;
    }
    default:  // truncate
      text.resize(pick(text.size() + 1));
      break;
  }
}

TEST(InstanceIoDifferential, MutantsGetTheReferenceParsersOutcome) {
  std::vector<std::string> texts;
  const std::vector<std::string> seed_sets[] = {valid_seeds(),
                                                hostile_seeds()};
  // Every prefix of the short seeds.
  for (const auto& seeds : seed_sets) {
    for (const std::string& seed : seeds) {
      if (seed.size() > 80) continue;
      for (std::size_t keep = 0; keep <= seed.size(); ++keep) {
        texts.push_back(seed.substr(0, keep));
      }
    }
  }
  support::Rng rng(20'261'018);
  for (int k = 0; k < 20'000; ++k) {
    const auto& seeds = seed_sets[k % 2];
    std::string text = seeds[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(seeds.size()) - 1))];
    for (std::int64_t edits = rng.uniform(1, 3); edits > 0; --edits) {
      mutate(text, rng);
    }
    texts.push_back(std::move(text));
  }

  const auto via_stream = [](const std::string& t) {
    std::istringstream in(t);
    return core::read_instance(in);
  };
  std::int64_t parsed = 0, parse_errors = 0, validation_errors = 0;
  int mismatches = 0;
  for (std::size_t k = 0; k < texts.size(); ++k) {
    const std::string& text = texts[k];
    const Outcome got = outcome_of(
        [](const std::string& t) { return core::read_instance_string(t); },
        text);
    const Outcome want = outcome_of(
        [](const std::string& t) {
          return core::reference::read_instance_string(t);
        },
        text);
    bool same = same_outcome(got, want);
    if (k % 10 == 0) {  // the stream entry point, now and then
      same = same && same_outcome(outcome_of(via_stream, text), want);
    }
    if (!same && ++mismatches <= 5) {
      ADD_FAILURE() << "text '" << escaped(text) << "'\n  parser:    "
                    << (got.file ? "parsed" : got.error)
                    << "\n  reference: "
                    << (want.file ? "parsed" : want.error);
    }
    EXPECT_EQ(want.error.rfind("contract breach", 0), std::string::npos)
        << escaped(text);
    if (want.file) ++parsed;
    if (want.error.rfind("ParseError", 0) == 0) ++parse_errors;
    if (want.error.rfind("ValidationError", 0) == 0) ++validation_errors;
  }
  EXPECT_EQ(mismatches, 0);
  // The loop reaches every outcome, not only the first line's errors.
  EXPECT_GT(parsed, 1'000);
  EXPECT_GT(parse_errors, 5'000);
  EXPECT_GT(validation_errors, 100);
}

/// (tasks, platform) with the tasks reordered; rate rows travel along.
std::pair<rt::TaskSet, rt::Platform> permuted(const rt::TaskSet& tasks,
                                              const rt::Platform& platform,
                                              support::Rng& rng) {
  std::vector<std::size_t> order(static_cast<std::size_t>(tasks.size()));
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::vector<rt::TaskParams> params;
  for (const std::size_t k : order) params.push_back(tasks.tasks()[k].params);
  rt::TaskSet shuffled = rt::TaskSet::from_params(params, tasks.model());
  if (platform.rate_rows() == 0) return {std::move(shuffled), platform};
  const auto rows = rate_rows(platform, tasks.size());
  std::vector<std::vector<rt::Rate>> moved;
  for (const std::size_t k : order) moved.push_back(rows[k]);
  return {std::move(shuffled), rt::Platform::heterogeneous(std::move(moved))};
}

rt::TaskSet scaled(const rt::TaskSet& tasks, rt::Time factor) {
  std::vector<rt::TaskParams> params;
  for (const rt::Task& task : tasks.tasks()) {
    params.push_back({task.offset() * factor, task.wcet() * factor,
                      task.deadline() * factor, task.period() * factor});
  }
  return rt::TaskSet::from_params(params, tasks.model());
}

TEST(InstanceIoDifferential, CanonicalKeysMatchTheReferenceByteForByte) {
  support::Rng rng(4'242);
  int compared = 0;
  for (int round = 0; round < 900; ++round) {
    const auto model = round % 2 == 0 ? rt::DeadlineModel::kConstrained
                                      : rt::DeadlineModel::kArbitrary;
    const auto kind = static_cast<PlatformKind>(round % 3);
    rt::TaskSet tasks = random_tasks(rng, model);
    rt::Platform platform = random_platform(rng, kind, tasks.size());
    if (round % 10 == 0) {  // a Table-I instance
      const gen::Instance inst = gen::generate_indexed(
          table1_options(), 3, static_cast<std::uint64_t>(round));
      tasks = inst.tasks;
      platform = rt::Platform::identical(inst.processors);
    }
    auto [shuffled, shuffled_platform] = permuted(tasks, platform, rng);
    const std::pair<rt::TaskSet, rt::Platform> forms[] = {
        {tasks, platform},
        {std::move(shuffled), std::move(shuffled_platform)},
        {scaled(tasks, rng.uniform(2, 5)), platform},
    };
    for (const auto& [t, p] : forms) {
      ASSERT_EQ(core::canonical_key(t, p),
                core::reference::canonical_key(t, p))
          << "round " << round;
      ++compared;
    }
  }
  EXPECT_EQ(compared, 900 * 3);
}

}  // namespace
}  // namespace mgrts
