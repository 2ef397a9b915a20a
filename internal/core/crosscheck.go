package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/counters"
	"repro/internal/des"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/workload"
)

// ResourceCheck compares one resource's utilization as the two methods
// see it: Measured is the machine-level simulator's time-averaged
// occupancy (from the performance-counter registry), Predicted is the
// GTPN solution's resource usage divided by the resource's server
// count.
type ResourceCheck struct {
	// Resource names the model resource; non-local checks prefix the
	// node role ("client.Host", "server.MP").
	Resource  string
	Measured  float64
	Predicted float64
	// RelErr is |Measured-Predicted| / Predicted.
	RelErr float64
}

// CrossCheckResult is the executable Figure 6.15 comparison: the same
// system evaluated analytically and experimentally, resource by
// resource and in throughput.
type CrossCheckResult struct {
	// Resources lists per-resource utilization comparisons, sorted by
	// resource name.
	Resources []ResourceCheck
	// MaxRelErr is the largest per-resource relative error.
	MaxRelErr float64
	// MeasuredThroughput and PredictedThroughput are round trips per
	// second; ThroughputRelErr is their relative deviation.
	MeasuredThroughput  float64
	PredictedThroughput float64
	ThroughputRelErr    float64
}

// CrossCheck evaluates the system both ways — solving the GTPN model
// and running the machine-level simulation with performance counters
// attached for the given simulated seconds — and reports per-resource
// utilization deviations. The model's stage means are sums of the
// simulator's configured activity costs, so for local conversations the
// two sides should agree within a few percent (sampling noise plus the
// geometric-stage approximation); persistent larger deviations mean the
// model and the machine have drifted apart.
func (s *System) CrossCheck(w Workload, seconds int64) (CrossCheckResult, error) {
	if w.Conversations <= 0 {
		return CrossCheckResult{}, fmt.Errorf("core: workload needs at least one conversation")
	}
	if seconds <= 0 {
		seconds = 10
	}

	reg := counters.New()
	cfg := machine.Config{Hosts: s.hosts, Seed: s.seed, Counters: reg}
	var m *machine.Machine
	if w.NonLocal {
		m = machine.NewNonLocal(s.arch, cfg)
	} else {
		m = machine.NewLocal(s.arch, cfg)
	}
	res := m.Run(workload.Params{
		Conversations: w.Conversations,
		ComputeMean:   int64(w.ServerComputeUS) * des.Microsecond,
	}, seconds*des.Second)
	if res.RoundTrips == 0 {
		return CrossCheckResult{}, fmt.Errorf("core: no round trips completed; extend the horizon")
	}
	measured := map[string]counters.Sample{}
	for _, sample := range m.CounterSnapshot() {
		measured[sample.Name] = sample
	}

	out := CrossCheckResult{MeasuredThroughput: res.Throughput * 1e6}
	var checks []ResourceCheck
	if w.NonLocal {
		sol, err := models.SolveNonLocal(s.arch, w.Conversations, s.hosts, w.ServerComputeUS, systemSolve)
		if err != nil {
			return CrossCheckResult{}, err
		}
		out.PredictedThroughput = sol.Throughput * 1e6
		checks = append(checks, s.nodeChecks("client.", 0, sol.ClientUtilization, measured)...)
		checks = append(checks, s.nodeChecks("server.", 1, sol.ServerUtilization, measured)...)
	} else {
		sol, err := models.BuildLocal(s.arch, w.Conversations, s.hosts, w.ServerComputeUS).Solve(systemSolve)
		if err != nil {
			return CrossCheckResult{}, err
		}
		out.PredictedThroughput = sol.Throughput * 1e6
		checks = s.nodeChecks("", 0, sol.Utilization, measured)
	}

	sort.Slice(checks, func(i, j int) bool { return checks[i].Resource < checks[j].Resource })
	for _, c := range checks {
		if c.RelErr > out.MaxRelErr {
			out.MaxRelErr = c.RelErr
		}
	}
	out.Resources = checks
	if out.PredictedThroughput > 0 {
		out.ThroughputRelErr = math.Abs(out.MeasuredThroughput-out.PredictedThroughput) / out.PredictedThroughput
	}
	return out, nil
}

// nodeChecks pairs one node's predicted utilizations with the measured
// counter samples of the corresponding simulated resources.
func (s *System) nodeChecks(prefix string, node int, predicted map[string]float64, measured map[string]counters.Sample) []ResourceCheck {
	var checks []ResourceCheck
	for resName, pred := range predicted {
		var meas float64
		switch resName {
		case "Host":
			// The model pools hosts into one multi-server resource; the
			// machine has per-processor occupancy. Average them.
			for i := 0; i < s.hosts; i++ {
				meas += measured[fmt.Sprintf("res.node%d.host%d.busy", node, i)].Mean
			}
			meas /= float64(s.hosts)
		case "MP":
			meas = measured[fmt.Sprintf("res.node%d.mp.busy", node)].Mean
		case "IoOut":
			meas = measured[fmt.Sprintf("res.node%d.ioOut.busy", node)].Mean
		case "IoIn":
			meas = measured[fmt.Sprintf("res.node%d.ioIn.busy", node)].Mean
		default:
			continue
		}
		c := ResourceCheck{Resource: prefix + resName, Measured: meas, Predicted: pred}
		if pred > 0 {
			c.RelErr = math.Abs(meas-pred) / pred
		} else if meas > 0 {
			c.RelErr = math.Inf(1)
		}
		checks = append(checks, c)
	}
	return checks
}
