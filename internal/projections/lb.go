package projections

import (
	"fmt"
	"strings"

	"gonamd/internal/ldb"
)

// LBReport renders the load-balance passes of a run as a before/after
// table: each ldb.Stats row is the post-assignment evaluation of one
// balancing pass (the cluster simulation records greedy then refine),
// so consecutive rows show how much each pass recovered. Imbalance is
// the paper's Table 1 metric, max per-PE load minus the average.
func LBReport(passes []ldb.Stats) string {
	if len(passes) == 0 {
		return "load balance: no balancing passes recorded\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %12s %12s %12s %10s %8s\n",
		"pass", "max load s", "avg load s", "imbalance s", "imbal %", "proxies")
	for i, st := range passes {
		pctOfAvg := 0.0
		if st.AvgLoad > 0 {
			pctOfAvg = 100 * st.Imbalance / st.AvgLoad
		}
		fmt.Fprintf(&b, "%-8d %12.6f %12.6f %12.6f %10.2f %8d\n",
			i, st.MaxLoad, st.AvgLoad, st.Imbalance, pctOfAvg, st.Proxies)
	}
	first, last := passes[0], passes[len(passes)-1]
	if first.Imbalance > 0 {
		fmt.Fprintf(&b, "imbalance %.6fs -> %.6fs (%.1f%% of the first pass remains)\n",
			first.Imbalance, last.Imbalance, 100*last.Imbalance/first.Imbalance)
	}
	return b.String()
}
