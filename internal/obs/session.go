package obs

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"ownsim/internal/check"
	"ownsim/internal/fabric"
	"ownsim/internal/flightrec"
	"ownsim/internal/probe"
	"ownsim/internal/traffic"
)

// Options are the run and observability settings of one instrumented
// simulation. Bind fills the fields cmd/ownsim and cmd/sweep share from
// the command line; PerComponent, Watchdog and StallTimeout are bound
// by cmd/ownsim alone and stay zero (off) for sweep.
type Options struct {
	Cores int
	// Pattern is parsed from -pattern by Validate.
	Pattern   traffic.Pattern
	pattern   string
	Warmup    uint64
	Measure   uint64
	Seed      uint64
	Reservoir int

	// Telemetry prints the top-N busiest shared channels after the run.
	Telemetry int
	// Dot, Metrics, Trace, Manifest and Energy are file paths; Heatmap,
	// Breakdown, Fairness and DumpOnExit are path prefixes. Empty
	// skips the artifact.
	Dot, Metrics, Trace, Manifest, Energy    string
	Heatmap, Breakdown, Fairness, DumpOnExit string
	// Sample traces every Nth packet; Window is the metric sampling
	// window in simulated cycles.
	Sample, Window uint64
	// Listen serves the live telemetry plane on this address; Pprof
	// mounts runtime profiling on it.
	Listen string
	Pprof  bool
	// Check installs the conformance checker.
	Check bool

	PerComponent bool
	Watchdog     flightrec.WatchdogConfig
	StallTimeout time.Duration
}

// Bind registers the flags cmd/ownsim and cmd/sweep share on fs and
// returns the Options they fill. Call Validate once fs has parsed.
func Bind(fs *flag.FlagSet) *Options {
	o := &Options{}
	fs.IntVar(&o.Cores, "cores", 256, "core count: 256 or 1024")
	fs.StringVar(&o.pattern, "pattern", "uniform", "traffic: uniform|bitreversal|transpose|shuffle|neighbor|hotspot")
	fs.Uint64Var(&o.Warmup, "warmup", 3000, "warmup cycles")
	fs.Uint64Var(&o.Measure, "measure", 12000, "measurement cycles")
	fs.Uint64Var(&o.Seed, "seed", 1, "simulation seed")
	fs.IntVar(&o.Telemetry, "telemetry", 0, "print the top-N busiest shared channels after the run")
	fs.StringVar(&o.Dot, "dot", "", "write the router-level topology as Graphviz DOT to this path")
	fs.StringVar(&o.Metrics, "metrics", "", "write the sampled metric time-series to this path (.csv or .ndjson)")
	fs.StringVar(&o.Trace, "trace", "", "write the per-packet lifecycle trace to this path (.json Chrome trace-event, or .ndjson)")
	fs.Uint64Var(&o.Sample, "sample", 1, "trace every Nth packet (with -trace; 1 = all)")
	fs.Uint64Var(&o.Window, "window", 256, "metric sampling window in simulated cycles (with -metrics)")
	fs.StringVar(&o.Manifest, "manifest", "", "write a machine-readable run manifest (JSON) to this path")
	fs.StringVar(&o.Listen, "listen", "", "serve live telemetry (/metrics, /healthz, /events) on this address during the run (e.g. :9090; port 0 picks a free port)")
	fs.StringVar(&o.Energy, "energy", "", "write the per-component energy attribution to this path (CSV) and print the breakdown table")
	fs.StringVar(&o.Heatmap, "heatmap", "", "write congestion and wireless-energy heatmaps (CSV+SVG) with this path prefix (implies per-component metrics)")
	fs.StringVar(&o.Breakdown, "latency-breakdown", "", "write the per-phase latency attribution (CSV+NDJSON+stacked-bar SVG) with this path prefix")
	fs.BoolVar(&o.Pprof, "pprof", false, "mount Go runtime profiling under /debug/pprof/ on the -listen server")
	fs.IntVar(&o.Reservoir, "reservoir", 0, "exact-percentile latency reservoir size in packets per run (0 = default 65536)")
	fs.StringVar(&o.Fairness, "fairness", "", "write token-fairness artifacts (per-tile wait CSV, per-channel Jain CSV, heatmap SVG) with this path prefix")
	fs.StringVar(&o.DumpOnExit, "dump-on-exit", "", "write a full state dump (NDJSON + text) with this path prefix after the run")
	fs.BoolVar(&o.Check, "check", false, "audit protocol invariants with the conformance checker (internal/check); violations go to stderr and the exit code is non-zero if any fired")
	return o
}

// Validate parses -pattern and checks the rules between the shared
// flags.
func (o *Options) Validate() error {
	p, err := traffic.ParsePattern(o.pattern)
	if err != nil {
		return err
	}
	o.Pattern = p
	if o.Pprof && o.Listen == "" {
		return errors.New("-pprof requires -listen")
	}
	if o.Sample == 0 || o.Window == 0 {
		return errors.New("-sample and -window must be >= 1")
	}
	return nil
}

// Instrumented reports whether any artifact or live plane beyond the
// topology graph is requested, i.e. whether a run must be observed.
func (o *Options) Instrumented() bool {
	return o.Telemetry > 0 || o.Metrics != "" || o.Trace != "" || o.Listen != "" ||
		o.Energy != "" || o.Heatmap != "" || o.Breakdown != "" ||
		o.Fairness != "" || o.DumpOnExit != ""
}

// flightRecorder reports whether the flight recorder is needed: it backs
// the fairness and dump artifacts, the /debug/dump endpoint and the
// watchdog detectors.
func (o *Options) flightRecorder() bool {
	w := o.Watchdog
	return o.Fairness != "" || o.DumpOnExit != "" || o.Listen != "" ||
		w.StarveBudgetCy > 0 || w.StallWindows > 0 || w.SatWindows > 0 || o.StallTimeout > 0
}

// probeOptions returns the probe configuration the requests need, and
// false when no probe is needed. Heatmaps need per-router counters to
// resolve congestion per tile; the breakdown, fairness and dumps need
// span decomposition for token waits and in-flight packet phases.
func (o *Options) probeOptions() (probe.Options, bool) {
	fr := o.flightRecorder()
	if o.Metrics == "" && o.Trace == "" && o.Heatmap == "" && o.Breakdown == "" && !fr {
		return probe.Options{}, false
	}
	po := probe.Options{
		PerComponent: o.PerComponent || o.Heatmap != "",
		Spans:        o.Breakdown != "" || o.Fairness != "" || o.DumpOnExit != "",
	}
	if o.Metrics != "" || o.Listen != "" || fr {
		po.MetricsEvery = o.Window
	}
	if o.Trace != "" {
		po.TraceEvery = o.Sample
	}
	return po, true
}

// Session is one instrumented run of a built network: Open installs the
// layers the Options ask for, Run simulates and closes the run, Emit
// writes the artifacts. Human-readable report lines go to the writer
// given to Open; watchdog trips, invariant violations and the live
// telemetry address go to the standard logger.
type Session struct {
	n      *fabric.Network
	o      *Options
	report io.Writer
	err    error // first failed report write

	fr       *flightrec.FlightRecorder
	pb       *probe.Probe
	srv      *Server
	ck       *check.Checker
	stopWall func()
}

// Open writes the topology graph and installs, in this order, the
// flight recorder, the probe, the live telemetry server and the
// conformance checker — each only when a request needs it. Every layer
// is inert: results are bit-identical with any subset installed.
func Open(n *fabric.Network, o *Options, report io.Writer) (*Session, error) {
	s := &Session{n: n, o: o, report: report}
	if o.Dot != "" {
		if err := os.WriteFile(o.Dot, []byte(n.DOT()), 0o644); err != nil {
			return nil, err
		}
		s.printf("wrote topology graph to %s\n", o.Dot)
	}
	if o.flightRecorder() {
		s.fr = flightrec.New(flightrec.Options{Watchdog: o.Watchdog})
		s.fr.Dog.OnTrip = func(reason string, snap *flightrec.Snapshot) {
			log.Printf("WATCHDOG TRIP: %s", reason)
			logDump("watchdog", snap)
		}
		n.InstallFlightRecorder(s.fr)
	}
	if po, ok := o.probeOptions(); ok {
		s.pb = probe.New(po)
		n.InstallProbe(s.pb)
	}
	// The live plane observes sampler snapshots and feeds nothing back.
	// Its address stays out of the manifest: ephemeral ports would break
	// byte-identical reruns.
	if o.Listen != "" {
		s.srv = New()
		s.srv.Attach(s.pb)
		if o.Pprof {
			s.srv.EnablePprof()
		}
		s.srv.SetBuildInfo(probe.ReadBuildInfo())
		s.srv.SetDumpProvider(s.fr.Dog.RequestDump)
		addr, err := s.srv.Start(o.Listen)
		if err != nil {
			return nil, err
		}
		log.Printf("live telemetry on http://%s/metrics", addr)
	}
	if o.StallTimeout > 0 {
		s.stopWall = s.fr.Dog.StartWall(o.StallTimeout, func(cycle uint64, stacks []byte) {
			log.Printf("no cycle progress for %s at cycle %d; goroutine stacks:\n%s", o.StallTimeout, cycle, stacks)
		})
	}
	if o.Check {
		s.ck = check.New()
		n.InstallChecker(s.ck, func(v check.Violation, snap *flightrec.Snapshot) {
			log.Printf("INVARIANT VIOLATION: %s", v)
			logDump("violation", snap)
		})
	}
	return s, nil
}

// Run simulates the traffic over the Options' warmup and measurement
// windows, then closes the run: the checker's final structural audit,
// the watchdog's last window and the live plane's "done" status.
func (s *Session) Run(t fabric.TrafficSpec) fabric.Result {
	n := s.n
	res := n.Run(t, fabric.RunSpec{Warmup: s.o.Warmup, Measure: s.o.Measure, ReservoirCap: s.o.Reservoir})
	if s.ck != nil {
		if err := n.CheckInvariants(); err != nil {
			s.ck.Report(n.Eng.Cycle(), check.RuleState, n.Name, err.Error())
		}
	}
	if s.fr != nil {
		s.fr.Dog.Finish(n.Eng.Cycle())
	}
	if s.srv != nil {
		s.srv.MarkDone()
	}
	return res
}

// Emit prints the -telemetry and -energy tables, writes every requested
// artifact (recording each in man when it is non-nil) and stamps man
// with the engine and pool introspection records.
func (s *Session) Emit(man *probe.Manifest) error {
	n, o := s.n, s.o
	if o.Telemetry > 0 {
		s.printf("\n%s", n.Telemetry(o.Telemetry))
	}
	if o.Energy != "" {
		s.printf("\n%s", n.Meter.EnergyTable(n.Eng.Cycle()))
	}
	if err := probe.EmitFiles(s.pb, o.Metrics, o.Trace, man); err != nil {
		return err
	}
	if o.Metrics != "" {
		s.printf("metrics:     %d samples x %d metrics -> %s\n", s.pb.Sampler().Rows(), s.pb.Registry().Len(), o.Metrics)
	}
	if t := s.pb.Tracer(); t != nil {
		s.printf("trace:       %d events -> %s\n", t.Len(), o.Trace)
		if t.Dropped() > 0 {
			s.printf("  WARNING: %d trace events dropped at the %d-event cap; raise -sample\n", t.Dropped(), probe.DefaultMaxTraceEvents)
		}
	}
	if o.Energy != "" {
		if err := EmitEnergyCSV(n, o.Energy, man); err != nil {
			return err
		}
		s.printf("energy:      %s\n", o.Energy)
	}
	for _, a := range []struct {
		label, prefix string
		emit          func(*fabric.Network, string, *probe.Manifest) ([]string, error)
	}{
		{"heatmaps:    ", o.Heatmap, EmitHeatmaps},
		{"breakdown:   ", o.Breakdown, EmitLatencyBreakdown},
		{"fairness:    ", o.Fairness, EmitFairness},
		{"dump:        ", o.DumpOnExit, EmitDump},
	} {
		if a.prefix == "" {
			continue
		}
		files, err := a.emit(n, a.prefix, man)
		if err != nil {
			return err
		}
		s.printf("%s%s\n", a.label, strings.Join(files, ", "))
	}
	if mm := s.pb.Spans().Mismatches(); o.Breakdown != "" && mm > 0 {
		s.printf("  WARNING: %d packets failed the span sum identity\n", mm)
	}
	if s.fr != nil && s.fr.Dog.Trips() > 0 {
		s.printf("  WARNING: watchdog tripped %d time(s); first: %s\n", s.fr.Dog.Trips(), s.fr.Dog.TripReasons()[0])
	}
	if man != nil {
		ei, pi := n.EngineIntro(), n.PoolIntro()
		man.Engine, man.Pools = &ei, &pi
	}
	return s.err
}

// Verdict reports the conformance checker's outcome: an error when any
// invariant fired, otherwise a clean line on the report writer. It
// reports nothing when no checker is installed.
func (s *Session) Verdict() error {
	if s.ck == nil {
		return nil
	}
	if s.ck.Total() > 0 {
		return fmt.Errorf("conformance: %d invariant violation(s) detected", s.ck.Total())
	}
	s.printf("conformance: clean (%d events audited)\n", s.ck.Events())
	return s.err
}

// Close stops the wall-clock watchdog and the live telemetry server.
func (s *Session) Close() error {
	if s.stopWall != nil {
		s.stopWall()
	}
	if s.srv != nil {
		return s.srv.Close()
	}
	return nil
}

// printf writes a report line, keeping the first write error for Emit
// and Verdict to return.
func (s *Session) printf(format string, args ...any) {
	if _, err := fmt.Fprintf(s.report, format, args...); err != nil && s.err == nil {
		s.err = err
	}
}

// logDump writes a state dump, if there is one, to the standard logger's
// output.
func logDump(what string, snap *flightrec.Snapshot) {
	if snap == nil {
		return
	}
	if err := snap.WriteText(log.Writer()); err != nil {
		log.Printf("%s dump failed: %v", what, err)
	}
}
