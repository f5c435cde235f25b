// Plain-text instance format, so examples and external tools can exchange
// problems:
//
//     # comment lines start with '#'
//     tasks 3
//     # one line per task: O C D T
//     0 1 2 2
//     1 3 4 4
//     0 2 2 3
//     processors 2
//     deadline-model constrained     # optional; or "arbitrary"
//     rates                          # optional heterogeneous block:
//     1 0                            #   n rows x m columns of s_{i,j}
//     1 2
//     0 1
//
// Without a `rates` block the platform is identical.
//
// Lines split on '\n' (the last needs no terminator) and are trimmed of
// ' ', '\t' and '\r'; blank lines and lines starting with '#' are skipped.
// Within a line, tokens split on the C locale's six whitespace bytes
// (' ', '\t', '\n', '\v', '\f', '\r'), so a line holding only '\v' or
// '\f' is a content line with no token, and an error wherever it appears.
// Integers are an optional sign and decimal digits, nothing else.
//
// Caps, each checked before the allocation it guards, so a hostile header
// cannot buy an allocation beyond them: task and processor counts in
// [1, 100000], task parameters within +-1e15, rates in [0, 1e9], and at
// most 4,000,000 entries in the rates block.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "rt/platform.hpp"
#include "rt/task_set.hpp"

namespace mgrts::core {

struct InstanceFile {
  rt::TaskSet tasks;
  rt::Platform platform = rt::Platform::identical(1);
};

/// Parses the format above in one pass over the bytes; throws ParseError
/// with a line reference on malformed input and ValidationError when the
/// parsed system is invalid.
[[nodiscard]] InstanceFile read_instance_string(std::string_view text);

/// Reads the whole stream first, then parses it as read_instance_string.
[[nodiscard]] InstanceFile read_instance(std::istream& in);

/// Serializes an instance in the same format (round-trips through read).
void write_instance(std::ostream& out, const rt::TaskSet& ts,
                    const rt::Platform& platform);
[[nodiscard]] std::string write_instance_string(const rt::TaskSet& ts,
                                                const rt::Platform& platform);

}  // namespace mgrts::core
