package obs

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/traffic"

	"ownsim/internal/fabric"
)

// TestBindFlagsAndDefaults pins the shared option set: the flag names
// and defaults cmd/ownsim and cmd/sweep both expose.
func TestBindFlagsAndDefaults(t *testing.T) {
	want := map[string]string{
		"cores": "256", "pattern": "uniform", "warmup": "3000", "measure": "12000",
		"seed": "1", "telemetry": "0", "dot": "", "metrics": "", "trace": "",
		"sample": "1", "window": "256", "manifest": "", "listen": "", "energy": "",
		"heatmap": "", "latency-breakdown": "", "pprof": "false", "reservoir": "0",
		"fairness": "", "dump-on-exit": "", "check": "false",
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	Bind(fs)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bound flags/defaults:\n got %v\nwant %v", got, want)
	}
}

// TestValidateReportsEachRule drives every shared validation rule
// through a real flag parse.
func TestValidateReportsEachRule(t *testing.T) {
	for _, tc := range []struct {
		args []string
		err  string // "" means valid
	}{
		{nil, ""},
		{[]string{"-pattern", "transpose", "-listen", ":0", "-pprof"}, ""},
		{[]string{"-pattern", "zigzag"}, `unknown pattern "zigzag"`},
		{[]string{"-pprof"}, "-pprof requires -listen"},
		{[]string{"-sample", "0"}, "-sample and -window must be >= 1"},
		{[]string{"-window", "0"}, "-sample and -window must be >= 1"},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		o := Bind(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: parse: %v", tc.args, err)
		}
		err := o.Validate()
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%v: unexpected error %v", tc.args, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%v: error %v, want %q", tc.args, err, tc.err)
		}
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Bind(fs)
	if err := fs.Parse([]string{"-pattern", "transpose"}); err != nil || o.Validate() != nil || o.Pattern != traffic.Transpose {
		t.Fatalf("-pattern transpose parsed to %v", o.Pattern)
	}
}

// TestSessionInstallsRequestedLayers pins the implication rules: each
// request installs exactly its layers, with the probe configured as the
// artifacts need.
func TestSessionInstallsRequestedLayers(t *testing.T) {
	const sample, window = 4, 16
	sampled := probe.Options{MetricsEvery: window}
	spans := probe.Options{MetricsEvery: window, Spans: true}
	for _, tc := range []struct {
		name   string
		set    func(o *Options)
		fr     bool
		probe  *probe.Options
		server bool
		wall   bool
		check  bool
	}{
		{name: "none", set: func(o *Options) {}},
		{name: "telemetry", set: func(o *Options) { o.Telemetry = 3 }},
		{name: "energy", set: func(o *Options) { o.Energy = "e.csv" }},
		{name: "percomponent alone", set: func(o *Options) { o.PerComponent = true }},
		{name: "metrics", set: func(o *Options) { o.Metrics = "m.csv" }, probe: &sampled},
		{name: "metrics percomponent", set: func(o *Options) { o.Metrics = "m.csv"; o.PerComponent = true },
			probe: &probe.Options{MetricsEvery: window, PerComponent: true}},
		{name: "trace", set: func(o *Options) { o.Trace = "t.json" }, probe: &probe.Options{TraceEvery: sample}},
		{name: "heatmap", set: func(o *Options) { o.Heatmap = "h" }, probe: &probe.Options{PerComponent: true}},
		{name: "breakdown", set: func(o *Options) { o.Breakdown = "b" }, probe: &probe.Options{Spans: true}},
		{name: "fairness", set: func(o *Options) { o.Fairness = "f" }, fr: true, probe: &spans},
		{name: "dump", set: func(o *Options) { o.DumpOnExit = "d" }, fr: true, probe: &spans},
		{name: "listen", set: func(o *Options) { o.Listen = "127.0.0.1:0" }, fr: true, probe: &sampled, server: true},
		{name: "watchdog starve", set: func(o *Options) { o.Watchdog.StarveBudgetCy = 100 }, fr: true, probe: &sampled},
		{name: "watchdog stall", set: func(o *Options) { o.Watchdog.StallWindows = 2 }, fr: true, probe: &sampled},
		{name: "watchdog sat", set: func(o *Options) { o.Watchdog.SatWindows = 2 }, fr: true, probe: &sampled},
		{name: "stall timeout", set: func(o *Options) { o.StallTimeout = time.Hour }, fr: true, probe: &sampled, wall: true},
		{name: "check", set: func(o *Options) { o.Check = true }, check: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := &Options{Sample: sample, Window: window}
			tc.set(o)
			n := obsRing(3, power.NewMeter(nil))
			s, err := Open(n, o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if got := n.FlightRec != nil; got != tc.fr {
				t.Errorf("flight recorder installed = %v, want %v", got, tc.fr)
			}
			switch {
			case tc.probe == nil && n.Probe != nil:
				t.Errorf("probe installed with %+v, want none", n.Probe.Options())
			case tc.probe != nil && n.Probe == nil:
				t.Errorf("no probe installed, want %+v", *tc.probe)
			case tc.probe != nil && n.Probe.Options() != *tc.probe:
				t.Errorf("probe options %+v, want %+v", n.Probe.Options(), *tc.probe)
			}
			if got := s.srv != nil; got != tc.server {
				t.Errorf("live server started = %v, want %v", got, tc.server)
			}
			if got := s.stopWall != nil; got != tc.wall {
				t.Errorf("wall-clock watchdog started = %v, want %v", got, tc.wall)
			}
			if got := n.Checker != nil; got != tc.check {
				t.Errorf("checker installed = %v, want %v", got, tc.check)
			}
		})
	}
}

// TestSessionEmitsEveryArtifact runs a session with every artifact on
// and checks the manifest lists them in the fixed emission order, each
// file on disk, the introspection records stamped and the checker clean.
func TestSessionEmitsEveryArtifact(t *testing.T) {
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	o := &Options{
		Warmup: 100, Measure: 600, Sample: 2, Window: 32, Telemetry: 2,
		Dot: at("g.dot"), Metrics: at("m.csv"), Trace: at("t.json"), Energy: at("e.csv"),
		Heatmap: at("h"), Breakdown: at("b"), Fairness: at("f"), DumpOnExit: at("d"),
		Check: true,
	}
	n := obsRing(4, power.NewMeter(nil))
	var report bytes.Buffer
	s, err := Open(n, o, &report)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run(fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.08, PktFlits: 3, Seed: 5})
	if res.Summary.Packets == 0 {
		t.Fatal("ring run delivered no packets")
	}
	man := &probe.Manifest{Tool: "obs-test"}
	if err := s.Emit(man); err != nil {
		t.Fatal(err)
	}
	if err := s.Verdict(); err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, a := range man.Artifacts {
		names = append(names, a.Name)
		if _, err := os.Stat(a.Path); err != nil {
			t.Errorf("artifact %s: %v", a.Name, err)
		}
	}
	want := []string{
		"metrics", "trace", "energy",
		"congestion_heatmap", "congestion_heatmap_svg",
		"latency_breakdown", "latency_breakdown_ndjson", "latency_breakdown_svg",
		"token_fairness_tiles", "token_fairness_jain", "token_fairness_heatmap",
		"state_dump", "state_dump_text",
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("manifest artifacts:\n got %v\nwant %v", names, want)
	}
	if man.Engine == nil || man.Pools == nil {
		t.Error("manifest lacks the engine/pool introspection records")
	}
	if _, err := os.Stat(o.Dot); err != nil {
		t.Errorf("topology graph: %v", err)
	}
	for _, line := range []string{"wrote topology graph to ", "metrics:", "trace:", "energy:", "heatmaps:", "breakdown:", "fairness:", "dump:", "conformance: clean"} {
		if !strings.Contains(report.String(), line) {
			t.Errorf("report lacks %q:\n%s", line, report.String())
		}
	}
}
