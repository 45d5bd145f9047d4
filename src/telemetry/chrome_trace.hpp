/// \file chrome_trace.hpp
/// \brief The JSON escaper under its telemetry name, which felis_bench calls.
///
/// The run's Chrome trace is written by Telemetry::finalize through
/// felis::ChromeTraceWriter (`common/trace.hpp`), and every JSON artifact
/// through the codec in `common/json.hpp`.
#pragma once

#include "common/json.hpp"

namespace felis::telemetry {

using felis::json_escape;

}  // namespace felis::telemetry
