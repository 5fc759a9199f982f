// Command sweep produces a latency/throughput-versus-load curve for one
// or all architectures (the data behind the paper's Figure 7b/c), in CSV
// on stdout. Sweep points run in parallel across CPUs; one progress line
// per finished point goes to stderr.
//
// With -telemetry, -metrics, -trace, -listen, -energy or -heatmap
// (single -topo only), the highest load point is re-run with the
// observability probe installed and the requested artifacts are emitted:
// metric time-series, packet traces, the per-component energy
// attribution CSV and congestion/wireless-energy heatmaps. -listen
// additionally serves the re-run's live telemetry plane (/metrics
// Prometheus text, /healthz, /events NDJSON) over HTTP while it runs.
// -manifest records the whole sweep — configuration, every point,
// artifact digests — as machine-readable JSON. Artifacts are
// deterministic: same flags and seed give byte-identical files
// regardless of GOMAXPROCS, with or without -listen.
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
	"strings"
	"sync"
	"time"

	"ownsim/internal/core"
	"ownsim/internal/fabric"
	"ownsim/internal/flightrec"
	"ownsim/internal/obs"
	"ownsim/internal/plot"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/stats"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")

	topo := flag.String("topo", "all", "topology: all|own|cmesh|wcmesh|optxb|pclos")
	cores := flag.Int("cores", 256, "core count: 256 or 1024")
	pattern := flag.String("pattern", "uniform", "traffic pattern")
	points := flag.Int("points", 8, "number of load points")
	warmup := flag.Uint64("warmup", 3000, "warmup cycles")
	measure := flag.Uint64("measure", 12000, "measurement cycles")
	seed := flag.Uint64("seed", 1, "simulation seed")
	doPlot := flag.Bool("plot", false, "render an ASCII latency-load chart on stderr")
	telemetry := flag.Int("telemetry", 0, "print the top-N busiest shared channels for the highest-load point (single -topo)")
	dot := flag.String("dot", "", "write the router-level topology as Graphviz DOT to this path (single -topo)")
	metrics := flag.String("metrics", "", "write the highest-load point's metric time-series to this path (.csv or .ndjson; single -topo)")
	trace := flag.String("trace", "", "write the highest-load point's packet trace to this path (.json Chrome trace-event, or .ndjson; single -topo)")
	sample := flag.Uint64("sample", 1, "trace every Nth packet (with -trace; 1 = all)")
	window := flag.Uint64("window", 256, "metric sampling window in simulated cycles (with -metrics)")
	manifest := flag.String("manifest", "", "write a machine-readable sweep manifest (JSON) to this path")
	listen := flag.String("listen", "", "serve live telemetry (/metrics, /healthz, /events) on this address during the instrumented re-run (single -topo; port 0 picks a free port)")
	energyPath := flag.String("energy", "", "write the instrumented point's per-component energy attribution CSV to this path (single -topo)")
	heatmap := flag.String("heatmap", "", "write the instrumented point's congestion and wireless-energy heatmaps (CSV+SVG) with this path prefix (single -topo)")
	breakdown := flag.String("latency-breakdown", "", "write the instrumented point's per-phase latency attribution (CSV+NDJSON+stacked-bar SVG) with this path prefix (single -topo)")
	pprofFlag := flag.Bool("pprof", false, "mount Go runtime profiling under /debug/pprof/ on the -listen server")
	reservoir := flag.Int("reservoir", 0, "exact-percentile latency reservoir size in packets per run (0 = default 65536)")
	fairness := flag.String("fairness", "", "write the instrumented point's token-fairness artifacts (per-tile wait CSV, Jain CSV, heatmap SVG) with this path prefix (single -topo)")
	dumpOnExit := flag.String("dump-on-exit", "", "write the instrumented point's full state dump (NDJSON + text) with this path prefix (single -topo)")
	checkFlag := flag.Bool("check", false, "run every sweep point under the conformance checker (internal/check); violations go to stderr and the exit code is non-zero if any fired")
	flag.Parse()

	pat, err := traffic.ParsePattern(*pattern)
	if err != nil {
		log.Fatal(err)
	}
	names := core.SystemNames()
	if *topo != "all" {
		names = []string{*topo}
	}
	instrumented := *telemetry > 0 || *metrics != "" || *trace != "" ||
		*listen != "" || *energyPath != "" || *heatmap != "" || *breakdown != "" ||
		*fairness != "" || *dumpOnExit != ""
	if (instrumented || *dot != "") && *topo == "all" {
		log.Fatal("-telemetry, -dot, -metrics, -trace, -listen, -energy, -heatmap, -latency-breakdown, -fairness and -dump-on-exit need a single -topo")
	}
	if *pprofFlag && *listen == "" {
		log.Fatal("-pprof requires -listen")
	}
	if *sample == 0 || *window == 0 {
		log.Fatal("-sample and -window must be >= 1")
	}
	b := core.Budget{Warmup: *warmup, Measure: *measure, Loads: *points, Seed: *seed, ReservoirCap: *reservoir}
	loads := core.SweepLoads(*cores, *points)

	var man *probe.Manifest
	if *manifest != "" {
		man = &probe.Manifest{
			Tool: "sweep",
			Config: map[string]string{
				"topo":      *topo,
				"cores":     strconv.Itoa(*cores),
				"pattern":   pat.String(),
				"points":    strconv.Itoa(*points),
				"warmup":    strconv.FormatUint(*warmup, 10),
				"measure":   strconv.FormatUint(*measure, 10),
				"sample":    strconv.FormatUint(*sample, 10),
				"window":    strconv.FormatUint(*window, 10),
				"reservoir": strconv.Itoa(*reservoir),
				"check":     strconv.FormatBool(*checkFlag),
			},
			Cores: *cores,
			Seed:  *seed,
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
		sys := core.NewSystem(name, *cores, wireless.Config4, wireless.Ideal)
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
		pts, vs := core.Sweep(sys, pat, loads, b, onPoint, *checkFlag)
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
		title := fmt.Sprintf("avg latency (cy) vs offered load (f/n/c), %s @ %d cores", pat, *cores)
		fmt.Fprint(os.Stderr, plot.Chart(title, chart, 72, 18))
	}

	// Instrumented re-run of the highest-load point: the probe layer is
	// inert, so its summary matches the sweep's last point exactly.
	if instrumented || *dot != "" {
		sys := core.NewSystem(*topo, *cores, wireless.Config4, wireless.Ideal)
		n := sys.Build(power.NewMeter(nil))
		if *dot != "" {
			if err := os.WriteFile(*dot, []byte(n.DOT()), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "sweep: wrote topology graph to %s\n", *dot)
		}
		if instrumented {
			// The flight recorder backs the fairness/dump artifacts and the
			// /debug/dump endpoint; install before the probe so the probe
			// installer attaches its stall feed.
			flightrecOn := *fairness != "" || *dumpOnExit != "" || *listen != ""
			var fr *flightrec.FlightRecorder
			if flightrecOn {
				fr = flightrec.New(flightrec.Options{})
				n.InstallFlightRecorder(fr)
			}
			// Heatmaps need per-router counters for per-tile congestion;
			// fairness and dumps need span decomposition for token waits.
			opts := probe.Options{
				PerComponent: *heatmap != "",
				Spans:        *breakdown != "" || *fairness != "" || *dumpOnExit != "",
			}
			if *metrics != "" || *listen != "" || flightrecOn {
				opts.MetricsEvery = *window
			}
			if *trace != "" {
				opts.TraceEvery = *sample
			}
			pb := probe.New(opts)
			n.InstallProbe(pb)
			// Read-only live telemetry over the instrumented point; the
			// address stays out of the manifest (ephemeral ports would
			// break byte-identical reruns).
			var srv *obs.Server
			if *listen != "" {
				srv = obs.New()
				srv.Attach(pb)
				if *pprofFlag {
					srv.EnablePprof()
				}
				srv.SetBuildInfo(probe.ReadBuildInfo())
				if fr != nil {
					srv.SetDumpProvider(fr.Dog.RequestDump)
				}
				addr, err := srv.Start(*listen)
				if err != nil {
					log.Fatal(err)
				}
				defer srv.Close()
				fmt.Fprintf(os.Stderr, "sweep: live telemetry on http://%s/metrics\n", addr)
			}
			last := len(loads) - 1
			res := n.Run(
				fabric.TrafficSpec{Pattern: pat, Rate: loads[last], Seed: b.Seed + uint64(last), Policy: sys.Policy, Classify: sys.Classify},
				fabric.RunSpec{Warmup: b.Warmup, Measure: b.Measure, ReservoirCap: *reservoir},
			)
			if fr != nil {
				fr.Dog.Finish(n.Eng.Cycle())
			}
			if srv != nil {
				srv.MarkDone()
			}
			fmt.Fprintf(os.Stderr, "sweep: instrumented %s @ load %.5f: %s\n", *topo, loads[last], res.Summary)
			if *telemetry > 0 {
				fmt.Fprint(os.Stderr, n.Telemetry(*telemetry))
			}
			if err := probe.EmitFiles(pb, *metrics, *trace, man); err != nil {
				log.Fatal(err)
			}
			if t := pb.Tracer(); t != nil && t.Dropped() > 0 {
				fmt.Fprintf(os.Stderr, "sweep: WARNING: %d trace events dropped at the cap; raise -sample\n", t.Dropped())
			}
			if *energyPath != "" {
				if err := obs.EmitEnergyCSV(n, *energyPath, man); err != nil {
					log.Fatal(err)
				}
				fmt.Fprint(os.Stderr, n.Meter.EnergyTable(n.Eng.Cycle()))
				fmt.Fprintf(os.Stderr, "sweep: wrote energy attribution to %s\n", *energyPath)
			}
			if *heatmap != "" {
				files, err := obs.EmitHeatmaps(n, *heatmap, man)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Fprintf(os.Stderr, "sweep: wrote heatmaps: %s\n", strings.Join(files, ", "))
			}
			if *breakdown != "" {
				files, err := obs.EmitLatencyBreakdown(n, *breakdown, man)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Fprintf(os.Stderr, "sweep: wrote latency breakdown: %s\n", strings.Join(files, ", "))
				if mm := pb.Spans().Mismatches(); mm > 0 {
					fmt.Fprintf(os.Stderr, "sweep: WARNING: %d packets failed the span sum identity\n", mm)
				}
			}
			if *fairness != "" {
				files, err := obs.EmitFairness(n, *fairness, man)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Fprintf(os.Stderr, "sweep: wrote fairness artifacts: %s\n", strings.Join(files, ", "))
			}
			if *dumpOnExit != "" {
				files, err := obs.EmitDump(n, *dumpOnExit, man)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Fprintf(os.Stderr, "sweep: wrote state dump: %s\n", strings.Join(files, ", "))
			}
			if man != nil {
				ei, pi := n.EngineIntro(), n.PoolIntro()
				man.Engine, man.Pools = &ei, &pi
			}
		}
	}

	if man != nil {
		if err := probe.WriteManifestFile(man, *manifest); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sweep: wrote manifest to %s\n", *manifest)
	}
	if *checkFlag {
		if violations > 0 {
			log.Fatalf("conformance: %d invariant violation(s) across the sweep", violations)
		}
		fmt.Fprintf(os.Stderr, "sweep: conformance clean across %d checked point(s)\n", total)
	}
}
