package main

import (
	"fmt"
	"strconv"
	"time"

	"ownsim/internal/check"
	"ownsim/internal/core"
	"ownsim/internal/fabric"
	"ownsim/internal/flightrec"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/report"
	"ownsim/internal/sim"
	"ownsim/internal/topology"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// Workload sizes. They are part of the benchmark's definition: changing
// one changes every recorded output and every baseline.
const (
	uniformWarmup  = 2000
	uniformMeasure = 100000
	// uniformLoadFrac is Fig. 8's operating point, a share of the
	// 1024-core uniform saturation load.
	uniformLoadFrac = 0.3

	stencilIters = 10
	// stencilLoadFrac sets the stencil's mean offered load: every core
	// sends four 5-flit packets per iteration, so the iteration period is
	// 20 flits / (stencilLoadFrac x saturation load).
	stencilLoadFrac = 0.5
	pktFlits        = 5
)

// A workload is one batch job with fixed inputs derived from a seed.
// BENCHMARK.json and README.md give the reason for each.
type workload struct {
	name string
	// prepare builds one repetition's networks and inputs; it is the
	// set-up the benchmark times. counts asks for the router pipeline
	// counters, which need a (bare) probe on networks that carry none.
	prepare func(seed uint64, counts bool) *job
	// invariants are the checks that hold for any seed, used when no
	// outputs are recorded for the seed.
	invariants func(out []field) []string
	// setupSamples is how many times each repetition sets the workload
	// up (keeping the last); setup_s is the median over every sample,
	// because a single OWN-1024 build (~10 ms) varies by half from one
	// build to the next.
	setupSamples int
	// countProbe marks a workload whose networks carry no probe, so the
	// router pipeline counters need a separate counting run.
	countProbe bool
}

// A job is one prepared repetition of a workload.
type job struct {
	setup setupTimes
	// components counts the simulation components registered with the
	// engines the workload built.
	components int
	// run is the simulation proper; it returns the simulated outputs.
	run func() []field
	// counts reads the layer counters after run; nil when the workload
	// builds its networks out of the benchmark's reach (the ledger).
	counts func() layerCounts
}

// setupTimes are the host seconds of the three set-up steps.
type setupTimes struct{ build, install, input float64 }

func (s setupTimes) total() float64 { return s.build + s.install + s.input }

func (s setupTimes) scaled(f float64) setupTimes {
	return setupTimes{s.build * f, s.install * f, s.input * f}
}

// field is one named simulated output, formatted exactly.
type field struct{ key, val string }

// layerCounts are the per-layer counters one run leaves behind.
type layerCounts struct {
	cycles, fastForwarded                    uint64
	computeTicks, deliveryTicks              uint64
	wakesEvent, wakesTimer, wakesSpurious    uint64
	timerHeapMax                             int
	sources                                  int
	generated, dropped                       uint64
	saGrants, creditStalls, busyStalls       uint64
	sbusFlits, sbusBusy, tokenMoves, sbusCrd uint64
	poolGets, poolFresh, poolHighWater       uint64
	violations                               uint64
}

var workloads = []workload{
	{
		// The claim ledger at the quick budget: every topology, both
		// scales, saturation sweeps. Set-up and the high-radix OptXB
		// routers weigh most.
		name:         "ledger-quick",
		prepare:      prepareLedger,
		invariants:   ledgerInvariants,
		setupSamples: 2,
	},
	{
		// OWN-1024, uniform Bernoulli traffic at 0.3x saturation: the
		// generator and source layer dominate, routers are nearly idle.
		name:         "own1024-uniform",
		prepare:      prepareUniform,
		invariants:   resultInvariants,
		setupSamples: 6,
		countProbe:   true,
	},
	{
		// OWN-1024 replaying a bursty stencil at 0.5x mean saturation
		// with every observer on: routers, sbus and hooks dominate, and
		// no Bernoulli draws happen.
		name:         "own1024-stencil-observed",
		prepare:      prepareStencil,
		invariants:   resultInvariants,
		setupSamples: 6,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// own1024 is the system both single-network workloads simulate.
func own1024() core.System {
	return core.NewSystem("own", 1024, wireless.Config4, wireless.Ideal)
}

func prepareUniform(seed uint64, counts bool) *job {
	sys := own1024()
	var j job
	t := time.Now()
	n := sys.Build(power.NewMeter(nil))
	j.setup.build = since(t)
	j.components = components(n)

	t = time.Now()
	ts := fabric.TrafficSpec{
		Pattern:  traffic.Uniform,
		Rate:     uniformLoadFrac * topology.UniformSaturationLoad(1024),
		PktFlits: pktFlits,
		Seed:     seed,
		Policy:   sys.Policy,
		Classify: sys.Classify,
	}
	rs := fabric.RunSpec{Warmup: uniformWarmup, Measure: uniformMeasure}
	j.setup.input = since(t)

	t = time.Now()
	if counts {
		n.InstallProbe(probe.New(probe.Options{}))
	}
	j.setup.install = since(t)

	j.run = func() []field { return resultFields(n.Run(ts, rs)) }
	j.counts = func() layerCounts { return networkCounts(n, nil) }
	return &j
}

// stencilPeriod is the iteration period in cycles for the stencil's mean
// offered load.
func stencilPeriod() uint64 {
	return uint64(4 * pktFlits / (stencilLoadFrac * topology.UniformSaturationLoad(1024)))
}

func prepareStencil(seed uint64, _ bool) *job {
	sys := own1024()
	period := stencilPeriod()
	var j job
	t := time.Now()
	n := sys.Build(power.NewMeter(nil))
	j.setup.build = since(t)
	j.components = components(n)

	t = time.Now()
	tr := traffic.StencilTrace(1024, stencilIters, period, seed)
	j.setup.input = since(t)

	// Every observer: the flight recorder (ring, stall tracking and
	// watchdog detectors) before the probe, then the probe with metric
	// sampling, a sampled tracer and latency spans, then the checker.
	t = time.Now()
	fr := flightrec.New(flightrec.Options{Watchdog: flightrec.WatchdogConfig{
		StarveBudgetCy: 4 * period,
		StallWindows:   64,
		SatWindows:     256,
	}})
	n.InstallFlightRecorder(fr)
	n.InstallProbe(probe.New(probe.Options{MetricsEvery: 256, TraceEvery: 64, Spans: true}))
	ck := check.New()
	n.InstallChecker(ck, nil)
	j.setup.install = since(t)

	budget := 2 * uint64(stencilIters+1) * period
	j.run = func() []field {
		res := n.RunTrace(tr, pktFlits, fabric.TrafficSpec{Policy: sys.Policy, Classify: sys.Classify}, budget)
		if err := n.CheckInvariants(); err != nil {
			ck.Report(n.Eng.Cycle(), check.RuleState, n.Name, err.Error())
		}
		fr.Dog.Finish(n.Eng.Cycle())
		out := resultFields(res)
		return append(out,
			field{"trace_packets", strconv.Itoa(len(tr.Entries))},
			field{"check_violations", strconv.FormatUint(ck.Total(), 10)},
			field{"watchdog_trips", strconv.FormatUint(fr.Dog.Trips(), 10)},
		)
	}
	j.counts = func() layerCounts { return networkCounts(n, ck) }
	return &j
}

// ledgerBuilds lists the (system, scale) pairs the quick ledger builds.
func ledgerBuilds() []core.System {
	var out []core.System
	for _, cores := range []int{256, 1024} {
		for _, name := range core.SystemNames() {
			out = append(out, core.NewSystem(name, cores, wireless.Config4, wireless.Ideal))
		}
	}
	return out
}

func prepareLedger(seed uint64, _ bool) *job {
	var j job
	// The ledger builds its networks inside Evaluate; set-up is one
	// Build of each (system, scale) it evaluates, timed out here.
	t := time.Now()
	for _, sys := range ledgerBuilds() {
		j.components += components(sys.Build(power.NewMeter(nil)))
	}
	j.setup.build = since(t)

	t = time.Now()
	b := core.QuickBudget()
	b.Seed = seed
	j.setup.input = since(t)

	j.run = func() []field {
		r := report.Evaluate(b, time.Time{})
		out := make([]field, 0, len(r.Claims)+1)
		out = append(out, field{"claims_passed", strconv.Itoa(r.Passed())})
		for _, c := range r.Claims {
			verdict := "FAIL"
			if c.Pass {
				verdict = "PASS"
			}
			out = append(out, field{c.ID, verdict + " " + c.Measured})
		}
		return out
	}
	return &j
}

// ledgerClaims is the number of claims the ledger scores.
const ledgerClaims = 20

func ledgerInvariants(out []field) []string {
	if len(out) != ledgerClaims+1 {
		return []string{fmt.Sprintf("ledger scored %d claims, want %d", len(out)-1, ledgerClaims)}
	}
	return nil
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// resultFields lists a run's Result fields that the checks compare.
func resultFields(r fabric.Result) []field {
	return []field{
		{"packets", strconv.FormatUint(r.Packets, 10)},
		{"avg_latency", fmtF(r.AvgLatency)},
		{"avg_net_latency", fmtF(r.AvgNetLatency)},
		{"p50_latency", strconv.FormatUint(r.P50Latency, 10)},
		{"p95_latency", strconv.FormatUint(r.P95Latency, 10)},
		{"p99_exact", strconv.FormatUint(r.P99Exact, 10)},
		{"p99_latency", strconv.FormatUint(r.P99Latency, 10)},
		{"max_latency", strconv.FormatUint(r.MaxLatency, 10)},
		{"avg_hops", fmtF(r.AvgHops)},
		{"throughput", fmtF(r.Throughput)},
		{"drained", strconv.FormatBool(r.Drained)},
		{"power_total_mw", fmtF(float64(r.Power.TotalMW()))},
		{"power_router_dyn_mw", fmtF(float64(r.Power.RouterDynMW))},
		{"power_photonic_mw", fmtF(float64(r.Power.PhotonicMW))},
		{"power_wireless_mw", fmtF(float64(r.Power.WirelessMW))},
		{"power_cycles", strconv.FormatUint(r.Power.Cycles, 10)},
	}
}

func lookup(out []field, key string) string {
	for _, f := range out {
		if f.key == key {
			return f.val
		}
	}
	return ""
}

// resultInvariants are the checks a single-network run passes at any
// seed: every measured packet drains, the percentiles are ordered, power
// is positive, and nothing the observers watch went wrong.
func resultInvariants(out []field) []string {
	var bad []string
	num := func(k string) float64 {
		v, err := strconv.ParseFloat(lookup(out, k), 64)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", k, err))
		}
		return v
	}
	if lookup(out, "drained") != "true" {
		bad = append(bad, "measured packets did not drain")
	}
	if num("packets") <= 0 {
		bad = append(bad, "no packets measured")
	}
	if p50, p95, p99, mx := num("p50_latency"), num("p95_latency"), num("p99_exact"), num("max_latency"); !(p50 <= p95 && p95 <= p99 && p99 <= mx) {
		bad = append(bad, fmt.Sprintf("latency percentiles out of order: %v %v %v %v", p50, p95, p99, mx))
	}
	if num("power_total_mw") <= 0 {
		bad = append(bad, "no power reported")
	}
	if tp := lookup(out, "trace_packets"); tp != "" && tp != lookup(out, "packets") {
		bad = append(bad, fmt.Sprintf("%s of %s trace packets measured", lookup(out, "packets"), tp))
	}
	for _, k := range []string{"check_violations", "watchdog_trips"} {
		if v := lookup(out, k); v != "" && v != "0" {
			bad = append(bad, k+" = "+v)
		}
	}
	return bad
}

var phases = []sim.Phase{sim.PhaseDelivery, sim.PhaseCompute, sim.PhaseCollect}

func components(n *fabric.Network) int {
	c := 0
	for _, ph := range phases {
		c += n.Eng.Components(ph)
	}
	return c
}

// networkCounts reads the public counters a finished run leaves on n.
func networkCounts(n *fabric.Network, ck *check.Checker) layerCounts {
	var c layerCounts
	for _, ph := range phases {
		st := n.Eng.PhaseStats(ph)
		c.wakesEvent += st.WakesEvent
		c.wakesTimer += st.WakesTimer
		c.wakesSpurious += st.WakesSpurious
		if st.TimerHeapMax > c.timerHeapMax {
			c.timerHeapMax = st.TimerHeapMax
		}
		switch ph {
		case sim.PhaseCompute:
			c.computeTicks = st.Ticks
		case sim.PhaseDelivery:
			c.deliveryTicks = st.Ticks
		}
	}
	c.cycles = n.Eng.Cycle()
	c.fastForwarded = n.Eng.FastForwarded()
	for _, s := range n.Sources {
		if s == nil {
			continue
		}
		c.sources++
		c.generated += s.Generated
		c.dropped += s.Dropped
	}
	// InstallProbe hands every router the same net.* counter handles.
	if n.Probe != nil && len(n.Routers) > 0 {
		pc := n.Routers[0].PC
		c.saGrants = pc.SAGrants.Value()
		c.creditStalls = pc.CreditStall.Value()
		c.busyStalls = pc.BusyStall.Value()
	}
	for _, ch := range n.Channels {
		st := ch.Stats()
		c.sbusFlits += st.Transmitted
		c.sbusBusy += st.BusyCy
		c.tokenMoves += st.TokenMoves
		c.sbusCrd += st.CreditStallCy
	}
	pi := n.PoolIntro()
	c.poolGets, c.poolFresh, c.poolHighWater = pi.Gets, pi.Fresh, pi.HighWater
	if ck != nil {
		c.violations = ck.Total()
	}
	return c
}
