package core

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ownsim/internal/fabric"
	"ownsim/internal/obs"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/stats"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// TestInstrumentedSweepArtifactsAcrossGOMAXPROCS drives cmd/sweep's
// observability path end to end: a parallel sweep with a progress
// callback, followed by an obs.Session re-run of the highest-load point.
// Every exported artifact — the curve itself, the metrics CSV, the
// Chrome trace, the energy attribution CSV, the heatmaps and the
// manifest — must be byte-identical whether the sweep's worker pool ran
// on 1 or 4 procs; host parallelism may only change how fast the answer
// arrives, never the answer.
func TestInstrumentedSweepArtifactsAcrossGOMAXPROCS(t *testing.T) {
	sys := NewSystem("own", 256, wireless.Config4, wireless.Ideal)
	loads := SweepLoads(256, 2)
	b := Budget{Warmup: 200, Measure: 800, Loads: 2, Seed: 7}
	// Both renders write the same paths, so their manifests can match.
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }

	render := func(procs int) (string, map[string][]byte, []byte) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)

		var mu sync.Mutex
		done := 0
		pts, _ := Sweep(sys, traffic.Uniform, loads, b, func(int, stats.CurvePoint) {
			mu.Lock()
			done++
			mu.Unlock()
		}, false)
		if done != len(loads) {
			t.Fatalf("progress callback fired %d times, want %d", done, len(loads))
		}

		man := &probe.Manifest{Tool: "sweep-test", Config: map[string]string{"sys": sys.Name}, Cores: sys.Cores, Seed: b.Seed}
		for i, pt := range pts {
			man.Points = append(man.Points, probe.Point{
				System: sys.Name, Load: loads[i], Latency: pt.Latency,
				Throughput: pt.Throughput, Saturated: pt.Saturated,
			})
		}

		// Re-run of the highest-load point, seeded exactly like the
		// sweep seeded it, through the session cmd/sweep uses.
		o := &obs.Options{
			Cores: 256, Pattern: traffic.Uniform, Warmup: b.Warmup, Measure: b.Measure, Seed: b.Seed,
			Sample: 64, Window: 128,
			Metrics: at("metrics.csv"), Trace: at("trace.json"), Energy: at("energy.csv"), Heatmap: at("hm"),
		}
		s, err := obs.Open(sys.Build(power.NewMeter(nil)), o, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		last := len(loads) - 1
		res := s.Run(fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: loads[last], Seed: b.Seed + uint64(last), Policy: sys.Policy, Classify: sys.Classify})
		if res.Summary.Throughput != pts[last].Throughput {
			t.Fatalf("re-run throughput %v != sweep point %v", res.Summary.Throughput, pts[last].Throughput)
		}
		if err := s.Emit(man); err != nil {
			t.Fatal(err)
		}

		var want []string
		for _, name := range []string{"metrics.csv", "trace.json", "energy.csv", "hm_congestion.csv", "hm_congestion.svg", "hm_energy.csv", "hm_energy.svg"} {
			want = append(want, at(name))
		}
		var got []string
		arts := map[string][]byte{}
		for _, a := range man.Artifacts {
			got = append(got, a.Path)
			raw, err := os.ReadFile(a.Path)
			if err != nil {
				t.Fatal(err)
			}
			arts[filepath.Base(a.Path)] = raw
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("artifacts = %v, want metrics, trace, energy, congestion + wireless energy heatmap pairs %v", got, want)
		}

		var manifest bytes.Buffer
		if err := man.WriteJSON(&manifest); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", pts), arts, manifest.Bytes()
	}

	pts1, arts1, man1 := render(1)
	pts4, arts4, man4 := render(4)
	if pts1 != pts4 {
		t.Fatalf("sweep points depend on GOMAXPROCS:\n  1: %s\n  4: %s", pts1, pts4)
	}
	for name, a1 := range arts1 {
		if !bytes.Equal(a1, arts4[name]) {
			t.Fatalf("%s depends on GOMAXPROCS", name)
		}
	}
	if !bytes.Equal(man1, man4) {
		t.Fatal("manifest depends on GOMAXPROCS")
	}
}
