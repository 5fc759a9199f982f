package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"ownsim/internal/sim.(*RNG).Uint64", "ownsim/internal/traffic.(*Bernoulli).Generate"}, "rng"},
		{[]string{"ownsim/internal/sim.(*Engine).Step"}, "sim"},
		{[]string{"ownsim/internal/fabric.(*Network).RunTrace.func1"}, "sim"},
		{[]string{"ownsim/internal/traffic.(*Bernoulli).Generate"}, "traffic"},
		{[]string{"ownsim/internal/core.Classify1024"}, "traffic"},
		{[]string{"ownsim/internal/router.(*Source).Tick"}, "source"},
		{[]string{"ownsim/internal/core.OWN1024Policy"}, "source"},
		{[]string{"ownsim/internal/router.(*Router).switchAllocate"}, "router"},
		{[]string{"ownsim/internal/core.routeOWN1024", "ownsim/internal/core.BuildOWN1024.func2"}, "router"},
		{[]string{"ownsim/internal/core.BuildOWN1024.func2", "ownsim/internal/router.(*Router).routeCompute"}, "router"},
		{[]string{"ownsim/internal/topology.BuildCMesh.func1"}, "router"},
		{[]string{"ownsim/internal/sbus.(*Channel).Tick"}, "sbus"},
		{[]string{"ownsim/internal/photonic.(*Crossbar).Tick"}, "sbus"},
		{[]string{"ownsim/internal/noc.(*Wire).Tick"}, "noc"},
		{[]string{"ownsim/internal/power.(*Meter).Xbar"}, "power"},
		{[]string{"ownsim/internal/probe.(*SpanTracker).OnEject"}, "obs"},
		{[]string{"ownsim/internal/probe.(*Counter).Inc", "ownsim/internal/router.(*Router).switchAllocate"}, "router"},
		{[]string{"ownsim/internal/check.(*RouterMonitor).Flit"}, "obs"},
		{[]string{"ownsim/internal/fabric.(*Network).installPacketHooks.func3"}, "obs"},
		{[]string{"ownsim/internal/fabric.(*checkSweep).Tick"}, "obs"},
		{[]string{"ownsim/internal/report.fig8Claims"}, "ledger"},
		{[]string{"runtime.mallocgc", "ownsim/internal/router.(*Router).Tick"}, "runtime"},
		{[]string{"runtime/pprof.profileWriter"}, "trace"},
		// Standard-library helpers pass through to their caller.
		{[]string{"math.Sqrt", "sort.Float64s", "ownsim/internal/stats.(*Collector).Summary"}, "stats"},
		// Anything under a system's Build closure is set-up.
		{[]string{"ownsim/internal/router.New", "ownsim/internal/topology.BuildOptXB", "ownsim/internal/core.NewSystem.func4"}, "core"},
		{[]string{"runtime.mallocgc", "ownsim/internal/core.BuildOWN1024", "ownsim/internal/core.NewSystem.func2"}, "core"},
		{[]string{"main.refKernel"}, "other"},
		{[]string{"sort.Float64s"}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
	known := map[string]bool{}
	for _, l := range selfLayers {
		known[l] = true
	}
	for _, r := range append(append([]rule(nil), setupRules...), leafRules...) {
		if r.layer != "" && !known[r.layer] {
			t.Errorf("rule %q charges unknown layer %q", r.prefix, r.layer)
		}
	}
}

// TestHostRef runs the reference kernel on two goroutines at once, as
// the ledger does.
func TestHostRef(t *testing.T) {
	if s := hostRef(2); !(s > 0 && s < 60) {
		t.Fatalf("hostRef(2) = %v s", s)
	}
}

func TestLowerHalfMean(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{210, 110, 120, 150}, 115},
		{[]float64{130, 90, 110, 200, 100}, 100},
	} {
		if got := lowerHalfMean(c.v); got != c.want {
			t.Errorf("lowerHalfMean(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

var spinSink uint64

//go:noinline
func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		for i := 0; i < 1000; i++ {
			spinSink = spinSink*6364136223846793005 + 1
		}
	}
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range stacks {
		total += s.cpuNS
		for _, fn := range s.funcs {
			if fn == "ownsim/perfbench.spin" {
				inSpin += s.cpuNS
				break
			}
		}
	}
	if total < int64(100*time.Millisecond) {
		t.Fatalf("profile holds %v of CPU, want most of 300ms", time.Duration(total))
	}
	if inSpin < total/2 {
		t.Errorf("spin holds %v of %v sampled", time.Duration(inSpin), time.Duration(total))
	}
}

// TestTracedAttribution runs every workload briefly with tracing on and
// holds the attribution to the shares the benchmark documents: the
// traced repetition reproduces the untraced outputs, almost nothing is
// left unattributed, and each workload's expected layer leads.
func TestTracedAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	rec, err := loadRecordings(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	const maxOther = 0.02
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w.name, seed: 1, seconds: 0.1, trace: true}
			m, ck, d, err := measure(w, o, rec.lookup(w.name, 1))
			if err != nil {
				t.Fatal(err)
			}
			if ck.failed > 0 || len(d.TracedRunS) == 0 {
				t.Fatalf("%d of %d checks failed over %d traced repetitions: %v", ck.failed, ck.attempted, len(d.TracedRunS), ck.failures)
			}
			self := map[string]float64{}
			total := 0.0
			for _, l := range selfLayers {
				self[l] = m[l+".self_s"].Value
				total += self[l]
			}
			if total <= 0 {
				t.Fatal("no CPU time attributed")
			}
			if share := self["other"] / total; share > maxOther {
				t.Errorf("other holds %.1f%% of CPU, want <= %.0f%%", 100*share, 100*maxOther)
			}
			lead := func(layers ...string) {
				sum := 0.0
				for _, l := range layers {
					sum += self[l]
				}
				for _, l := range selfLayers {
					if self[l] > sum {
						t.Errorf("%s (%.2fs) outweighs %v (%.2fs)", l, self[l], layers, sum)
					}
				}
			}
			switch w.name {
			case "own1024-uniform":
				lead("source", "traffic", "rng")
			case "own1024-stencil-observed":
				lead("router")
				if share := self["traffic"] / total; share > 0.05 {
					t.Errorf("traffic holds %.1f%% of CPU on the stencil, want near 0", 100*share)
				}
			}
			if w.name != "own1024-stencil-observed" && self["obs"] != 0 {
				t.Errorf("obs.self_s = %v without observers installed", self["obs"])
			}
		})
	}
}
