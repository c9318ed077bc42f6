// The three benchmark workloads. Each runs whole rounds of its queries
// until `args.seconds` have passed, checks every answer against the
// independent reference (checker.h), and fills `report` with the
// end-to-end metrics, or with the per-layer metrics when `args.trace`.
#ifndef OMEGA_PERFBENCH_WORKLOADS_H_
#define OMEGA_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// Fig. 4 L4All Q1-Q12 on L4 and Fig. 9 YAGO Q1-Q9, every mode, under the
/// §4.1 protocol through QueryEngine on one thread.
omega::Status RunPaper(const Args& args, Report* report);

/// Multi-conjunct ranked queries (top-100) from seeded templates.
omega::Status RunJoin(const Args& args, Report* report);

/// First-page requests through QueryService from two closed-loop clients,
/// with periodic snapshot hot swaps.
omega::Status RunServed(const Args& args, Report* report);

}  // namespace perfbench

#endif  // OMEGA_PERFBENCH_WORKLOADS_H_
