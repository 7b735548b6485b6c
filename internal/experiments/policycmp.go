package experiments

import (
	"fmt"
	"strings"

	"mlperf/internal/cluster"
	"mlperf/internal/fault"
	"mlperf/internal/telemetry"
)

// PolicyRow is one scheduling policy's outcome on the shared arrival
// trace: the online extension of the Figure 4 study.
type PolicyRow struct {
	Policy string
	// MakespanH is the last completion in hours.
	MakespanH float64
	// MeanJCTH and P95JCTH summarize job completion times in hours.
	MeanJCTH, P95JCTH float64
	// GPUUtilPct is reserved GPU-time over fleet capacity.
	GPUUtilPct float64
	// Preemptions and OverheadMin total the evictions and their
	// checkpoint+restart charge.
	Preemptions int
	OverheadMin float64
}

// PolicySweepConfig parameterizes the comparison; zero values take the
// defaults noted per field.
type PolicySweepConfig struct {
	// Systems names the fleet's machines in the hw catalog (default one
	// DSS 8440, the paper's Figure 4 platform).
	Systems []string
	// Seed drives the synthetic arrival trace.
	Seed int64
	// Jobs is the trace length (default 12).
	Jobs int
	// MeanGapSec is the mean exponential interarrival gap (default
	// 1800 s, which keeps a queue in front of the fleet).
	MeanGapSec float64
	// Telemetry, when non-nil, receives per-policy cluster metrics and
	// job spans (see internal/cluster's Metric* families).
	Telemetry *telemetry.Registry
}

// policyPlan is the preemption price shared by every policy: 10-minute
// checkpoints with full replay of the lost window; snapshot bytes are
// derived per benchmark from its parameter + optimizer footprint.
func policyPlan() *fault.Plan {
	return &fault.Plan{Checkpoint: fault.Checkpoint{Interval: 600, ReplayFrac: 1}}
}

// policyRestartDelay is the per-preemption re-provision time in seconds.
const policyRestartDelay = 30

// defaults fills the zero fields.
func (c *PolicySweepConfig) defaults() {
	if len(c.Systems) == 0 {
		c.Systems = []string{"dss8440"}
	}
	if c.Jobs <= 0 {
		c.Jobs = 12
	}
	if c.MeanGapSec <= 0 {
		c.MeanGapSec = 1800
	}
}

// policyRun runs one policy over the config's trace with the shared
// preemption pricing and validates the result.
func policyRun(c PolicySweepConfig, pol cluster.Policy) (*cluster.Result, error) {
	c.defaults()
	fleet, err := cluster.Fleet(c.Systems...)
	if err != nil {
		return nil, err
	}
	res, err := cluster.Run(cluster.Config{
		Fleet:        fleet,
		Jobs:         cluster.SyntheticTrace(c.Seed, c.Jobs, c.MeanGapSec),
		Policy:       pol,
		Fault:        policyPlan(),
		RestartDelay: policyRestartDelay,
		Telemetry:    c.Telemetry,
	})
	if err != nil {
		return nil, fmt.Errorf("policy %s: %w", pol.Name(), err)
	}
	if err := res.Validate(); err != nil {
		return nil, fmt.Errorf("policy %s: %w", pol.Name(), err)
	}
	return res, nil
}

// PolicyRun runs one named policy (see cluster.PolicyByName) over the
// same trace and preemption pricing the comparison table uses, and
// returns the full validated result — segments, outcomes and the event
// stream, ready for Timeline/Chrome-trace export.
func PolicyRun(c PolicySweepConfig, policy string) (*cluster.Result, error) {
	pol, err := cluster.PolicyByName(policy)
	if err != nil {
		return nil, err
	}
	return policyRun(c, pol)
}

// PolicyComparisonWith runs every built-in policy over one deterministic
// arrival trace and returns the comparison table. Durations come from
// the shared memoized sweep engine, so the same Table IV cells behind
// Figure 4 price the online jobs.
func PolicyComparisonWith(c PolicySweepConfig) ([]PolicyRow, error) {
	c.defaults()
	rows := make([]PolicyRow, 0, 4)
	for _, pol := range cluster.Policies() {
		res, err := policyRun(c, pol)
		if err != nil {
			return nil, err
		}
		m := res.Metrics
		rows = append(rows, PolicyRow{
			Policy:      m.Policy,
			MakespanH:   m.Makespan / 3600,
			MeanJCTH:    m.MeanJCT / 3600,
			P95JCTH:     m.P95JCT / 3600,
			GPUUtilPct:  m.GPUUtil * 100,
			Preemptions: m.Preemptions,
			OverheadMin: m.OverheadSec / 60,
		})
	}
	return rows, nil
}

// RenderPolicyComparison renders the table.
func RenderPolicyComparison(rows []PolicyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %10s %10s %8s %9s %9s\n",
		"policy", "makespan_h", "mean_jct_h", "p95_jct_h", "gpu_pct", "preempts", "ovhd_min")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %10.2f %10.2f %10.2f %8.1f %9d %9.1f\n",
			r.Policy, r.MakespanH, r.MeanJCTH, r.P95JCTH, r.GPUUtilPct, r.Preemptions, r.OverheadMin)
	}
	return b.String()
}
