/// \file sweep.hpp
/// \brief Sweep-syntax expansion: one campaign ParamMap → many case ParamMaps.
///
/// The paper's result is a *campaign* — the same RBC case repeated across a
/// decade-spanning ladder of Rayleigh numbers (Kooij et al., arXiv:1802.09054,
/// ground the Nu-vs-Ra table this enables). A campaign file is an ordinary
/// ParamMap whose `sweep.*` keys declare parameter axes:
///
///   sweep.Ra = 1e5:1e8:log4        # 4 log-spaced points, 1e5 … 1e8
///   sweep.Pr = 0.7:7.0:lin3        # 3 linearly spaced points
///   sweep.fluid.max_order = 3,5    # explicit list (numbers or strings)
///
/// A `sweep.X` axis targets case key `case.X` when `X` has no dot, and the
/// dotted key `X` verbatim otherwise (so `sweep.Ra` sweeps `case.Ra` while
/// `sweep.fluid.max_order` sweeps `fluid.max_order`). Multiple axes expand as
/// their Cartesian product, in sorted-key order, each case inheriting every
/// non-sweep key of the campaign file. Malformed specs throw felis::Error
/// naming the offending key.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/params.hpp"

namespace felis::sched {

/// One expanded case of a campaign: a stable directory-safe id, the full
/// parameter map (campaign base + this case's swept values) and the swept
/// key→value pairs alone (for the manifest and summary tables).
struct CaseSpec {
  std::string id;
  ParamMap params;
  std::map<std::string, std::string> overrides;  ///< swept keys only
  int threads = 1;          ///< GCD budget this case occupies while running
  std::int64_t steps = 0;   ///< time steps (resolved from case.steps)
  double cost_seconds = 0;  ///< perfmodel estimate (queue ordering)
};

/// Expand one sweep value spec (`a:b:logN`, `a:b:linN`, or a comma list) into
/// its value strings. Range endpoints are inclusive; `logN` endpoints must be
/// positive. `key` is used verbatim in error messages.
std::vector<std::string> expand_sweep_values(const std::string& key,
                                             const std::string& spec);

/// Map a `sweep.*` key to the case key it targets (see file doc).
std::string sweep_target_key(const std::string& sweep_key);

/// Expand every `sweep.*` axis of `campaign` into the Cartesian product of
/// cases. With no sweep keys the campaign is a single case. Ids are
/// `case<NNNN>` plus the swept leaf=value pairs, sanitized for use as
/// directory names; they are stable across re-parses of the same file (the
/// resume contract keys the manifest on them).
std::vector<CaseSpec> expand_campaign_cases(const ParamMap& campaign);

}  // namespace felis::sched
