// Command perfbench is ownsim's host-time benchmark. It runs one named
// workload (or all of them) for a fixed wall-clock budget, checks every
// repetition's simulated outputs, and prints the end-to-end metrics, or,
// with -trace 1, the per-layer attribution from a CPU profile. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first; see perfbench/README.md for the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// maxProcs caps GOMAXPROCS: the ledger's ParallelMap uses every P, and a
// fixed cap keeps its figures comparable across hosts with more cores.
const maxProcs = 2

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	record   string
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "wall-clock seconds to measure")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.record, "record", "", "run once and store the outputs under (workload, seed) in this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}

	var ws []workload
	if o.workload == "all" {
		ws = workloads
	} else if w, ok := findWorkload(o.workload); ok {
		ws = []workload{w}
	} else {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", o.workload, strings.Join(names, ", "))
		return 2
	}

	procs := runtime.NumCPU()
	if procs > maxProcs {
		procs = maxProcs
	}
	runtime.GOMAXPROCS(procs)

	if o.record != "" {
		for _, w := range ws {
			out := w.prepare(o.seed, false).run()
			if bad := w.invariants(out); len(bad) > 0 {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: not recording, invariants fail: %v\n", w.name, o.seed, bad)
				return 1
			}
			if err := record(o.record, w.name, o.seed, out); err != nil {
				fmt.Fprintf(stderr, "perfbench: record: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "recorded %s seed %d (%d outputs)\n", w.name, o.seed, len(out))
		}
		return 0
	}

	rec, err := loadRecordings(expectedJSON)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	final := result{Metrics: map[string]metric{}}
	for _, w := range ws {
		m, ck, detail, err := measure(w, o, rec.lookup(w.name, o.seed))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		detail.Procs = procs
		for _, f := range ck.failures {
			fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", w.name, f)
		}
		line, err := json.Marshal(detail)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		// fail_frac is an end-to-end metric too, but it is 0 whenever the
		// benchmark is usable, so the result line carries it as
		// attempted/failed, except with -workload all.
		table := map[string]metric{"fail_frac": {detail.FailFrac, "ratio"}}
		for name, v := range m {
			table[name] = v
		}
		printTable(stdout, w.name, table)
		final.Attempted += ck.attempted
		final.Failed += ck.failed
		if len(ws) == 1 {
			final.Metrics = m
			continue
		}
		for name, v := range table {
			final.Metrics[w.name+"."+name] = v
		}
	}
	final.Correct = final.Failed == 0
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the informational record printed before the result line.
type detail struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Procs    int    `json:"gomaxprocs"`
	// Recorded reports whether outputs were recorded for this seed.
	Recorded bool `json:"recorded"`
	// HostRefS holds each repetition's host reference kernel times
	// (before, after), in seconds: a reading of the host, not of ownsim.
	HostRefS [][2]float64 `json:"host_ref_s"`
	// RunS, TracedRunS and SetupS are raw wall times, before scaling.
	RunS       []float64 `json:"run_s"`
	TracedRunS []float64 `json:"traced_run_s,omitempty"`
	SetupS     []float64 `json:"setup_s"`
	PeakRSSMB  []float64 `json:"peak_rss_mb"`
	FailFrac   float64   `json:"fail_frac"`
	Spans      []span    `json:"spans,omitempty"`
	// RSSResetError is set when the peak-RSS mark could not be reset.
	RSSResetError string `json:"rss_reset_error,omitempty"`
}

// span is one timed call of a traced repetition, in seconds since the
// workload started.
type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// repetition is one measured run of a workload.
type repetition struct {
	runS float64
	// scale converts the repetition's wall times to reference-host
	// seconds (hostref.go).
	scale float64
	out   []field
	// counts are the layer counters the run left behind (zero when the
	// workload's networks are out of reach), components the engines'
	// component count.
	counts     layerCounts
	components int
	// allocBytes, mallocs and gcs are the runtime's deltas over the run.
	allocBytes, mallocs, gcs uint64
	// peakRSSMB is the repetition's peak resident set, set-up included.
	peakRSSMB float64
}

// measure runs w for o.seconds and derives its metrics.
func measure(w workload, o options, want map[string]string) (map[string]metric, *checker, detail, error) {
	ck := &checker{}
	d := detail{Workload: w.name, Seed: o.seed, Trace: o.trace, Recorded: want != nil}
	start := time.Now()
	at := func() float64 { return since(start) }
	procs := runtime.GOMAXPROCS(0)

	// setups holds every set-up sample, scaled to reference-host seconds.
	var setups []setupTimes
	var first []field
	// lastRep is the wall time of the latest repetition, set-up
	// included; a new one starts only if one as long still ends within
	// the budget, so a run does not overrun --seconds by a repetition.
	var lastRep float64
	fits := func(done int, budget float64) bool { return done == 0 || at()+lastRep <= budget }
	rep := func(label string, counts bool, profile *bytes.Buffer) (repetition, error) {
		var j *job
		t0 := at()
		defer func() { lastRep = at() - t0 }()
		ref0 := hostRef(procs)
		if err := resetPeakRSS(); err != nil {
			d.RSSResetError = err.Error()
		}
		var raw []setupTimes
		for i := 0; i < w.setupSamples; i++ {
			runtime.GC()
			j = w.prepare(o.seed, counts)
			raw = append(raw, j.setup)
		}
		t1 := at()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if profile != nil {
			if err := pprof.StartCPUProfile(profile); err != nil {
				return repetition{}, err
			}
		}
		t := time.Now()
		out := j.run()
		r := repetition{runS: since(t), out: out, components: j.components}
		if profile != nil {
			pprof.StopCPUProfile()
			d.Spans = append(d.Spans,
				span{Name: label, Start: t0, End: at()},
				span{Name: "setup", Parent: label, Start: t0, End: t1},
				span{Name: "run", Parent: label, Start: t1, End: at()})
		}
		runtime.ReadMemStats(&after)
		r.allocBytes = after.TotalAlloc - before.TotalAlloc
		r.mallocs = after.Mallocs - before.Mallocs
		r.gcs = uint64(after.NumGC - before.NumGC)
		r.peakRSSMB = peakRSSMB()
		ref1 := hostRef(procs)
		d.HostRefS = append(d.HostRefS, [2]float64{ref0, ref1})
		r.scale = refNominalS / ((ref0 + ref1) / 2)
		for _, s := range raw {
			d.SetupS = append(d.SetupS, s.total())
			setups = append(setups, s.scaled(r.scale))
		}
		if j.counts != nil {
			r.counts = j.counts()
		}
		ck.outputs(w, want, first, out, label)
		if first == nil {
			first = out
		}
		return r, nil
	}

	// Untraced repetitions fill the budget (half of it when traced
	// repetitions follow); every phase runs at least once.
	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	var plain []repetition
	for fits(len(plain), budget) {
		r, err := rep(fmt.Sprintf("rep%d", len(plain)), false, nil)
		if err != nil {
			return nil, nil, d, err
		}
		plain = append(plain, r)
		d.RunS = append(d.RunS, r.runS)
		d.PeakRSSMB = append(d.PeakRSSMB, r.peakRSSMB)
	}

	var m map[string]metric
	if !o.trace {
		m = map[string]metric{
			"run_s":       {median(scaledRuns(plain)), "s"},
			"setup_s":     {median(totals(setups)), "s"},
			"peak_rss_mb": {lowerHalfMean(d.PeakRSSMB), "MB"},
		}
	} else {
		attr := newAttribution()
		var traced []repetition
		for fits(len(traced), o.seconds) {
			var prof bytes.Buffer
			r, err := rep(fmt.Sprintf("traced%d", len(traced)), false, &prof)
			if err != nil {
				return nil, nil, d, err
			}
			stacks, err := parseCPUProfile(prof.Bytes())
			if err != nil {
				return nil, nil, d, err
			}
			attr.add(stacks, r.scale)
			traced = append(traced, r)
			d.TracedRunS = append(d.TracedRunS, r.runS)
		}
		last := traced[len(traced)-1]
		if w.countProbe {
			// The router pipeline counters live on the probe; a workload
			// without one gets a separate, unprofiled counting run with a
			// bare probe installed (probes are inert, so its outputs are
			// checked against the others too).
			r, err := rep("counted", true, nil)
			if err != nil {
				return nil, nil, d, err
			}
			last = r
		}
		m = layerMetrics(attr, traced, last, plain, setups)
	}
	if ck.attempted > 0 {
		d.FailFrac = float64(ck.failed) / float64(ck.attempted)
	}
	return m, ck, d, nil
}

// layerMetrics derives the per-layer metrics of a traced run.
func layerMetrics(attr attribution, traced []repetition, last repetition, plain []repetition, setups []setupTimes) map[string]metric {
	c := last.counts
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}
	reps := float64(len(traced))
	self := func(layer string) float64 { return attr.self[layer] / reps }
	for _, l := range selfLayers {
		put(l+".self_s", self(l), "s")
	}
	runS := median(scaledRuns(plain))

	var build, install, input []float64
	for _, s := range setups {
		build = append(build, s.build)
		install = append(install, s.install)
		input = append(input, s.input)
	}
	put("core.build_s", median(build), "s")
	put("core.install_s", median(install), "s")
	put("core.input_s", median(input), "s")
	put("core.components", float64(last.components), "count")

	executed := float64(c.cycles - c.fastForwarded)
	wakes := float64(c.wakesEvent + c.wakesTimer + c.wakesSpurious)
	put("sim.cycles", float64(c.cycles), "count")
	put("sim.cycles_per_s", ratio(float64(c.cycles), runS), "1/s")
	put("sim.compute_ticks_per_cycle", ratio(float64(c.computeTicks), executed), "count")
	put("sim.delivery_ticks_per_cycle", ratio(float64(c.deliveryTicks), executed), "count")
	put("sim.wakes_event", float64(c.wakesEvent), "count")
	put("sim.wakes_timer", float64(c.wakesTimer), "count")
	put("sim.wakes_spurious_ratio", ratio(float64(c.wakesSpurious), wakes), "ratio")
	put("sim.timer_heap_max", float64(c.timerHeapMax), "count")
	put("sim.fast_forwarded", float64(c.fastForwarded), "count")

	put("source.packets", float64(c.generated), "count")
	put("source.dropped", float64(c.dropped), "count")
	put("source.pkts_per_source_cycle", ratio(float64(c.generated), float64(c.sources)*float64(c.cycles)), "ratio")

	grants := float64(c.saGrants)
	put("router.sa_grants", grants, "count")
	put("router.credit_stalls", float64(c.creditStalls), "count")
	put("router.busy_stalls", float64(c.busyStalls), "count")
	put("router.sa_grant_ratio", ratio(grants, grants+float64(c.creditStalls+c.busyStalls)), "ratio")
	put("router.ns_per_grant", ratio(self("router")*1e9, grants), "ns")

	put("sbus.flits", float64(c.sbusFlits), "count")
	put("sbus.busy_cy", float64(c.sbusBusy), "count")
	put("sbus.token_moves_per_flit", ratio(float64(c.tokenMoves), float64(c.sbusFlits)), "ratio")
	put("sbus.credit_stall_cy", float64(c.sbusCrd), "count")

	put("noc.pool_gets", float64(c.poolGets), "count")
	reuse := 0.0
	if c.poolGets > 0 {
		reuse = 1 - float64(c.poolFresh)/float64(c.poolGets)
	}
	put("noc.pool_reuse_ratio", reuse, "ratio")
	put("noc.pool_high_water", float64(c.poolHighWater), "count")

	packets, _ := strconv.ParseFloat(lookup(last.out, "packets"), 64) // absent (0) on the ledger
	put("stats.packets", packets, "count")
	put("obs.check_violations", float64(c.violations), "count")

	var allocMB, allocs, gcs []float64
	for _, r := range plain {
		allocMB = append(allocMB, float64(r.allocBytes)/(1<<20))
		allocs = append(allocs, float64(r.mallocs))
		gcs = append(gcs, float64(r.gcs))
	}
	put("runtime.alloc_mb", median(allocMB), "MB")
	put("runtime.allocs", median(allocs), "count")
	put("runtime.gc_cycles", median(gcs), "count")

	for _, f := range figureFuncs {
		put("ledger."+f.key+"_s", attr.figures[f.key]/reps, "s")
	}
	claims, _ := strconv.ParseFloat(lookup(last.out, "claims_passed"), 64) // absent (0) off the ledger
	put("ledger.claims_passed", claims, "count")

	put("trace.overhead_frac", ratio(median(scaledRuns(traced)), runS)-1, "ratio")
	return m
}

// scaledRuns lists the repetitions' run times in reference-host seconds.
func scaledRuns(reps []repetition) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.runS * r.scale
	}
	return out
}

func totals(s []setupTimes) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.total()
	}
	return out
}

// lowerHalfMean is the mean of the smallest half (rounded up) of v.
// peak_rss_mb is the lower-half mean of the per-repetition peaks: on the
// ledger, GC cycles that happen to land while both ParallelMap workers
// hold 1024-core networks add up to 100 MB to a repetition's peak. Such
// timing mostly adds, so the lower half is the workload's requirement.
// Its mean is steadier than the single lowest peak, which rare
// repetitions pull 10-20% under the usual floor.
func lowerHalfMean(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	s = s[:(len(s)+1)/2]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS returns freed memory to the OS and resets the kernel's
// peak-RSS mark (VmHWM), so each repetition reports its own peak rather
// than the process's so far. On failure the peaks include earlier
// repetitions; the detail line reports the error.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// printTable prints the metrics as aligned name/value/unit lines.
func printTable(w io.Writer, workload string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-26s %-32s %14.6g %s\n", workload, n, m[n].Value, m[n].Unit)
	}
}
