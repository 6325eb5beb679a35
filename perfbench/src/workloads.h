// The benchmark's three workloads.  Each generates its own inputs from
// Args::seed, runs untraced passes for Args::seconds (or one reference pass
// plus one traced pass when Args::trace is set) and fills a Result.
#pragma once

#include "common.h"

namespace perfbench {

Result run_paper_presets(const Args& args);
Result run_many_tenants(const Args& args);
Result run_online_admit(const Args& args);

}  // namespace perfbench
