// Command sweep produces a latency/throughput-versus-load curve for one
// or all architectures (the data behind the paper's Figure 7b/c), in CSV
// on stdout. Sweep points run in parallel across CPUs; one progress line
// per finished point goes to stderr.
//
// sweep shares cmd/ownsim's observability flags (internal/obs binds
// them). With a single -topo, any of -telemetry, -metrics, -trace,
// -listen, -energy, -heatmap, -latency-breakdown, -fairness or
// -dump-on-exit re-runs the highest-load point with the requested layers
// installed and emits the artifacts; its summary and report lines go to
// stderr. -listen serves the re-run's live telemetry plane (/metrics
// Prometheus text, /healthz, /events NDJSON) over HTTP while it runs.
// -check audits every sweep point, not the re-run. -manifest records the
// whole sweep — configuration, every point, artifact digests — as
// machine-readable JSON. Artifacts are deterministic: same flags and
// seed give byte-identical files regardless of GOMAXPROCS, with or
// without -listen.
//
// Examples:
//
//	sweep -topo all -cores 256 -pattern uniform -points 10
//	sweep -topo own -points 8 -telemetry 5 -metrics m.csv -trace t.json -manifest run.json
//	sweep -topo own -points 6 -listen :9090 -energy energy.csv -heatmap heat
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"sync"
	"time"

	"ownsim/internal/core"
	"ownsim/internal/fabric"
	"ownsim/internal/obs"
	"ownsim/internal/plot"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/stats"
	"ownsim/internal/wireless"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")

	o := obs.Bind(flag.CommandLine)
	topo := flag.String("topo", "all", "topology: all|own|cmesh|wcmesh|optxb|pclos")
	points := flag.Int("points", 8, "number of load points")
	doPlot := flag.Bool("plot", false, "render an ASCII latency-load chart on stderr")
	flag.Parse()
	if err := o.Validate(); err != nil {
		log.Fatal(err)
	}

	pat := o.Pattern
	names := core.SystemNames()
	if *topo != "all" {
		names = []string{*topo}
	}
	rerun := o.Instrumented() || o.Dot != ""
	if rerun && *topo == "all" {
		log.Fatal("-telemetry, -dot, -metrics, -trace, -listen, -energy, -heatmap, -latency-breakdown, -fairness and -dump-on-exit need a single -topo")
	}
	b := core.Budget{Warmup: o.Warmup, Measure: o.Measure, Loads: *points, Seed: o.Seed, ReservoirCap: o.Reservoir}
	loads := core.SweepLoads(o.Cores, *points)

	var man *probe.Manifest
	if o.Manifest != "" {
		man = &probe.Manifest{
			Tool: "sweep",
			Config: map[string]string{
				"topo":      *topo,
				"cores":     strconv.Itoa(o.Cores),
				"pattern":   pat.String(),
				"points":    strconv.Itoa(*points),
				"warmup":    strconv.FormatUint(o.Warmup, 10),
				"measure":   strconv.FormatUint(o.Measure, 10),
				"sample":    strconv.FormatUint(o.Sample, 10),
				"window":    strconv.FormatUint(o.Window, 10),
				"reservoir": strconv.Itoa(o.Reservoir),
				"check":     strconv.FormatBool(o.Check),
			},
			Cores: o.Cores,
			Seed:  o.Seed,
			Build: probe.ReadBuildInfo(),
		}
	}

	start := time.Now()
	done := 0
	violations := 0
	total := len(names) * len(loads)
	var mu sync.Mutex
	fmt.Println("topology,pattern,load_fnc,avg_latency_cy,throughput_fnc,saturated")
	var chart []plot.Series
	for _, name := range names {
		name := name
		sys := core.NewSystem(name, o.Cores, wireless.Config4, wireless.Ideal)
		// Per-point progress on stderr; wall-clock timing is allowed
		// here in cmd/ (the deterministic CSV/manifest outputs never
		// see it). Completion order is whatever the worker pool gives.
		onPoint := func(i int, p stats.CurvePoint) {
			mu.Lock()
			defer mu.Unlock()
			done++
			fmt.Fprintf(os.Stderr, "sweep: [%d/%d] %s load=%.5f latency=%.1f thr=%.5f sat=%v (%.1fs)\n",
				done, total, name, p.Load, p.Latency, p.Throughput, p.Saturated, time.Since(start).Seconds())
		}
		// A checked sweep yields the same curve (the checker is inert),
		// plus every invariant violation across the points, in load order.
		pts, vs := core.Sweep(sys, pat, loads, b, onPoint, o.Check)
		for _, v := range vs {
			fmt.Fprintf(os.Stderr, "sweep: INVARIANT VIOLATION [%s]: %s\n", name, v)
		}
		violations += len(vs)
		series := plot.Series{Name: name}
		for i, p := range pts {
			fmt.Printf("%s,%s,%.6f,%.2f,%.6f,%v\n", name, pat, p.Load, p.Latency, p.Throughput, p.Saturated)
			if !p.Saturated {
				series.X = append(series.X, p.Load)
				series.Y = append(series.Y, p.Latency)
			}
			if man != nil {
				man.Points = append(man.Points, probe.Point{
					System: name, Load: loads[i], Latency: p.Latency,
					Throughput: p.Throughput, Saturated: p.Saturated,
				})
			}
		}
		chart = append(chart, series)
	}
	if *doPlot {
		title := fmt.Sprintf("avg latency (cy) vs offered load (f/n/c), %s @ %d cores", pat, o.Cores)
		fmt.Fprint(os.Stderr, plot.Chart(title, chart, 72, 18))
	}

	// Instrumented re-run of the highest-load point, seeded exactly like
	// the sweep seeded it. Every layer is inert, so its summary matches
	// the sweep's last point; the sweep already checked that point, so
	// the re-run installs no second checker.
	if rerun {
		sys := core.NewSystem(*topo, o.Cores, wireless.Config4, wireless.Ideal)
		ro := *o
		ro.Check = false
		s, err := obs.Open(sys.Build(power.NewMeter(nil)), &ro, os.Stderr)
		if err != nil {
			log.Fatal(err)
		}
		defer s.Close()
		if o.Instrumented() {
			last := len(loads) - 1
			res := s.Run(fabric.TrafficSpec{Pattern: pat, Rate: loads[last], Seed: b.Seed + uint64(last), Policy: sys.Policy, Classify: sys.Classify})
			fmt.Fprintf(os.Stderr, "sweep: instrumented %s @ load %.5f: %s\n", *topo, loads[last], res.Summary)
			if err := s.Emit(man); err != nil {
				log.Fatal(err)
			}
		}
	}

	if man != nil {
		if err := probe.WriteManifestFile(man, o.Manifest); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sweep: wrote manifest to %s\n", o.Manifest)
	}
	if o.Check {
		if violations > 0 {
			log.Fatalf("conformance: %d invariant violation(s) across the sweep", violations)
		}
		fmt.Fprintf(os.Stderr, "sweep: conformance clean across %d checked point(s)\n", total)
	}
}
