// Command-line helpers shared by the daemons (mgrts_serverd, mgrts_workerd,
// mgrts_coordd).  Every helper takes the program name for its messages and
// exits with status 2 on bad input.
//
// Header-only on purpose: the root build makes one executable of every
// tools/*.cpp, and the perfbench build compiles the daemon sources on their
// own, so a shared .cpp here would need wiring into both.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/fault.hpp"

namespace mgrts::cli {

/// `text` as a whole base-10 integer; anything else exits 2 naming `flag`.
inline std::int64_t parse_int(const char* program, const char* flag,
                              const char* text) {
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(text, &used);
    if (used != std::strlen(text)) throw std::invalid_argument("trailing");
    return value;
  } catch (const std::exception&) {
    std::fprintf(stderr, "%s: %s expects an integer, got '%s'\n", program,
                 flag, text);
    std::exit(2);
  }
}

/// The non-empty items of a comma-separated list, in order.
inline std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string item =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? list.size() + 1 : comma + 1;
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Usage lines of the --fault-* flags (FaultFlags).
inline constexpr const char* kFaultUsage =
    "chaos (deterministic fault injection, for the CI smoke):\n"
    "  --fault-seed S           arm the injector with this seed\n"
    "  --fault-rate R           per-evaluation firing probability [0,1]\n"
    "  --fault-sites LIST       comma list: flow-network,job-table,\n"
    "                           schedule-table,csp-var-budget,deadline,\n"
    "                           propagator,stall (kCancel is sticky and\n"
    "                           not servable; it is rejected here)\n"
    "  --fault-max N            total fault cap (-1 unlimited)\n"
    "  --fault-stall-cap-ms MS  upper bound on one injected stall\n";

/// The --fault-* flags of a resident daemon: they arm the deterministic
/// process-wide FaultInjector before serving starts.
class FaultFlags {
 public:
  explicit FaultFlags(const char* program) : program_(program) {}

  /// Consumes `flag` when it is a --fault-* flag, reading its argument
  /// through `value()`; returns false for every other flag.
  template <typename ValueFn>
  bool parse(const std::string& flag, ValueFn&& value) {
    if (flag == "--fault-seed") {
      plan_.seed = static_cast<std::uint64_t>(
          parse_int(program_, "--fault-seed", value()));
      arm_ = true;
    } else if (flag == "--fault-rate") {
      plan_.rate = std::atof(value());
      arm_ = true;
    } else if (flag == "--fault-sites") {
      plan_.sites = parse_sites(value());
      arm_ = true;
    } else if (flag == "--fault-max") {
      plan_.max_faults = parse_int(program_, "--fault-max", value());
    } else if (flag == "--fault-stall-cap-ms") {
      plan_.stall_cap_ms = parse_int(program_, "--fault-stall-cap-ms", value());
    } else {
      return false;
    }
    return true;
  }

  /// Arms the injector when seed, rate or sites were given.  Returns false,
  /// after saying why, when they were not given together.
  [[nodiscard]] bool arm() const {
    if (!arm_) return true;
    if (plan_.sites == 0 || plan_.rate <= 0.0) {
      std::fprintf(stderr,
                   "%s: --fault-seed/--fault-rate/--fault-sites must be "
                   "given together\n",
                   program_);
      return false;
    }
    support::FaultInjector::arm(plan_);
    std::printf("%s: fault injector armed (seed=%llu rate=%g sites=0x%x)\n",
                program_, static_cast<unsigned long long>(plan_.seed),
                plan_.rate, plan_.sites);
    return true;
  }

 private:
  unsigned parse_sites(const std::string& list) const {
    using support::FaultSite;
    unsigned mask = 0;
    for (const std::string& name : split_list(list)) {
      bool found = false;
      for (int s = 0; s < support::kFaultSiteCount; ++s) {
        const auto site = static_cast<FaultSite>(s);
        if (name != support::to_string(site)) continue;
        if (site == FaultSite::kCancel) {
          // A fired kCancel is sticky on its target token: in a resident
          // process it would degrade every later request sharing the
          // plan's target.  The in-process chaos suites cover it instead.
          std::fprintf(stderr,
                       "%s: fault site 'cancel' is not servable in a "
                       "resident daemon\n",
                       program_);
          std::exit(2);
        }
        mask |= support::FaultPlan::mask(site);
        found = true;
        break;
      }
      if (!found) {
        std::fprintf(stderr, "%s: unknown fault site '%s'\n", program_,
                     name.c_str());
        std::exit(2);
      }
    }
    return mask;
  }

  const char* program_;
  support::FaultPlan plan_;
  bool arm_ = false;
};

}  // namespace mgrts::cli
