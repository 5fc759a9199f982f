package core

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ownsim/internal/fabric"
	"ownsim/internal/flightrec"
	"ownsim/internal/obs"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// flightRun repeats the golden fixed-seed configuration through the
// obs.Session cmd/ownsim uses for -fairness/-dump-on-exit runs: the
// flight recorder installed ahead of a span-tracking, sampling probe.
// The fairness and dump artifacts go under a fresh temp dir on Emit.
func flightRun(t *testing.T, cores int, rate float64) (fabric.Result, *fabric.Network, *obs.Session) {
	t.Helper()
	sys := NewSystem("own", cores, wireless.Config4, wireless.Ideal)
	n := sys.Build(power.NewMeter(nil))
	dir := t.TempDir()
	s, err := obs.Open(n, &obs.Options{
		Warmup: 500, Measure: 2500, Sample: 1, Window: 256,
		Fairness: filepath.Join(dir, "fair"), DumpOnExit: filepath.Join(dir, "dump"),
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	res := s.Run(fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: rate, Seed: 77, Policy: sys.Policy, Classify: sys.Classify})
	return res, n, s
}

// TestFlightRecorderInertOWN256 pins the diagnostics bargain: installing
// the full flight-recorder stack must not change a single bit of the
// simulation result.
func TestFlightRecorderInertOWN256(t *testing.T) {
	res, _, _ := flightRun(t, 256, 0.004)
	if bare := goldenRun(t, 256, 0.004); res != bare {
		t.Fatalf("flight-recorder run diverged from bare run:\n got %+v\nwant %+v", res, bare)
	}
}

// TestTokenWaitReconciliation checks the cross-layer identity: the stall
// tracker is fed from the same channel-transmit hook that charges span
// token_wait, so the per-tile sums must reconcile with the span phase
// total cycle for cycle.
func TestTokenWaitReconciliation(t *testing.T) {
	check := func(cores int, rate float64) {
		_, n, _ := flightRun(t, cores, rate)
		fr := n.FlightRec
		sp := n.Probe.Spans()
		if sp == nil {
			t.Fatal("span tracker not installed")
		}
		got, want := fr.Stall.TotalWaitCy(), sp.PhaseCycles(probe.SpanTokenWait)
		if got != want {
			t.Errorf("%d cores: stall tracker total %d cy != span token_wait %d cy", cores, got, want)
		}
		if want == 0 {
			t.Errorf("%d cores: no token waits recorded; fixture exercises nothing", cores)
		}
		// Every acquisition lands in exactly one tile histogram bucket.
		for k := 0; k < flightrec.NumKinds; k++ {
			count, _, _ := fr.Stall.KindTotals(k)
			var hsum uint64
			for _, v := range fr.Stall.KindHist(k) {
				hsum += v
			}
			if hsum != count {
				t.Errorf("%d cores kind %d: histogram holds %d acquisitions, totals say %d", cores, k, hsum, count)
			}
		}
	}
	check(256, 0.004)
	if !testing.Short() {
		check(1024, 0.001)
	}
}

// TestFlightRecorderRingFollowsSampler checks the ring recorder sees the
// sampler's windows, names aligned with the registry, with the token and
// stall gauges registered behind the established columns.
func TestFlightRecorderRingFollowsSampler(t *testing.T) {
	_, n, _ := flightRun(t, 256, 0.004)
	fr := n.FlightRec
	if fr.Rec.Total() == 0 {
		t.Fatal("ring recorder observed no sampler windows")
	}
	names := fr.Rec.Names()
	if len(names) == 0 {
		t.Fatal("ring recorder has no metric names")
	}
	tail := fr.Rec.Tail(0)
	if len(tail) == 0 {
		t.Fatal("ring recorder retained no frames")
	}
	for _, f := range tail {
		if len(f.Values) != len(names) {
			t.Fatalf("frame holds %d values for %d names", len(f.Values), len(names))
		}
	}
	// The flight-recorder gauges ride behind every pre-existing column:
	// no token.*/stall.* name may precede a non-flightrec name.
	lastOther, firstFR := -1, len(names)
	for i, name := range names {
		if strings.HasPrefix(name, "token.") || strings.HasPrefix(name, "stall.") {
			if i < firstFR {
				firstFR = i
			}
		} else if i > lastOther {
			lastOther = i
		}
	}
	if firstFR == len(names) {
		t.Fatal("no token.*/stall.* gauges registered")
	}
	if firstFR < lastOther {
		t.Errorf("flight-recorder gauges interleave the established columns (first at %d, others end at %d)", firstFR, lastOther)
	}
	// The watchdog saw the run and nothing tripped on the golden config.
	if trips := fr.Dog.Trips(); trips != 0 {
		t.Errorf("watchdog tripped %d times on the golden run: %v", trips, fr.Dog.TripReasons())
	}
}

// TestFairnessArtifactsByteStableAcrossGOMAXPROCS renders the fairness
// and state-dump artifact set from identical runs under different
// GOMAXPROCS settings; host parallelism must never leak into the bytes.
func TestFairnessArtifactsByteStableAcrossGOMAXPROCS(t *testing.T) {
	render := func(procs int) map[string][]byte {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		_, _, s := flightRun(t, 256, 0.004)
		man := &probe.Manifest{}
		if err := s.Emit(man); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, a := range man.Artifacts {
			names = append(names, a.Name)
		}
		want := []string{"token_fairness_tiles", "token_fairness_jain", "token_fairness_heatmap", "state_dump", "state_dump_text"}
		if !reflect.DeepEqual(names, want) {
			t.Fatalf("emitted %v, want fairness tiles+jain+heatmap and dump ndjson+text", names)
		}
		arts := make(map[string][]byte)
		for _, a := range man.Artifacts {
			raw, err := os.ReadFile(a.Path)
			if err != nil {
				t.Fatal(err)
			}
			arts[filepath.Base(a.Path)] = raw
		}
		return arts
	}
	a1 := render(1)
	a4 := render(4)
	for name, raw := range a1 {
		if !bytes.Equal(raw, a4[name]) {
			t.Errorf("%s depends on GOMAXPROCS", name)
		}
	}
	if len(a1) != len(a4) {
		t.Errorf("artifact sets differ: %d vs %d files", len(a1), len(a4))
	}
}

// TestFairnessArtifactsRequireRecorder pins the error paths: both
// emitters refuse to run without an installed flight recorder.
func TestFairnessArtifactsRequireRecorder(t *testing.T) {
	sys := NewSystem("own", 256, wireless.Config4, wireless.Ideal)
	n := sys.Build(power.NewMeter(nil))
	dir := t.TempDir()
	if _, err := obs.EmitFairness(n, filepath.Join(dir, "fair"), nil); err == nil {
		t.Error("EmitFairness without a flight recorder must error")
	}
	if _, err := obs.EmitDump(n, filepath.Join(dir, "dump"), nil); err == nil {
		t.Error("EmitDump without a flight recorder must error")
	}
}
