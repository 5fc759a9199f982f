package main

import "strings"

// selfLayers are the layers CPU self time is charged to, in report
// order. Each becomes a "<layer>.self_s" metric.
var selfLayers = []string{
	"core", "sim", "rng", "traffic", "source", "router", "sbus", "noc",
	"stats", "power", "obs", "ledger", "runtime", "trace", "other",
}

// A rule charges functions whose name starts with prefix to layer.
type rule struct{ prefix, layer string }

// setupRules mark network construction: a sample whose stack passes
// through a system's Build closure is set-up work wherever its leaf
// lies, so it is charged to core. Only the ledger builds inside the
// profiled run (Evaluate builds a network per simulation).
var setupRules = []rule{
	{"ownsim/internal/core.NewSystem.", "core"},
}

// leafRules map a frame to its layer; the first matching prefix wins, so
// specific rules come before their package's catch-all. A frame that
// matches no rule (a standard-library helper such as math or sort), or a
// rule with an empty layer, is passed through: the sample is charged to
// its nearest caller that maps to a layer.
var leafRules = []rule{
	// Nil-safe probe methods inlined at their call sites: the router's
	// pipeline-counter increments and the end-of-run flush. They cost
	// the same with or without a probe installed, so they are charged
	// to the caller, not to the observers.
	{"ownsim/internal/probe.(*Counter).", ""},
	{"ownsim/internal/probe.(*Probe).Flush", ""},
	// sim.RNG draws are their own layer, split from the engine.
	{"ownsim/internal/sim.(*RNG).", "rng"},
	{"ownsim/internal/sim.", "sim"},
	// fabric's run loops and their termination predicates drive the
	// engine; its installers' hook closures are observers.
	{"ownsim/internal/fabric.(*Network).installPacketHooks.", "obs"},
	{"ownsim/internal/fabric.(*Network).InstallChecker.", "obs"},
	{"ownsim/internal/fabric.(*Network).InstallFlightRecorder.", "obs"},
	{"ownsim/internal/fabric.(*Network).wireFlightRec.", "obs"},
	{"ownsim/internal/fabric.(*Network).registerMetrics.", "obs"},
	{"ownsim/internal/fabric.(*Network).Snapshot", "obs"},
	{"ownsim/internal/fabric.(*checkSweep).", "obs"},
	{"ownsim/internal/fabric.", "sim"},
	{"ownsim/internal/traffic.", "traffic"},
	// Topology callbacks the simulation calls per packet: the OWN
	// classifier feeds the generator, the injection VC policy is the
	// source's, and route functions are the router's RC stage.
	{"ownsim/internal/core.Classify", "traffic"},
	{"ownsim/internal/core.OWN256Policy", "source"},
	{"ownsim/internal/core.OWN1024Policy", "source"},
	{"ownsim/internal/core.route", "router"},
	{"ownsim/internal/core.BuildOWN", "router"}, // route closures
	{"ownsim/internal/topology.", "router"},
	{"ownsim/internal/router.(*Source).", "source"},
	{"ownsim/internal/router.", "router"},
	{"ownsim/internal/sbus.", "sbus"},
	{"ownsim/internal/photonic.", "sbus"},
	{"ownsim/internal/wireless.", "sbus"},
	{"ownsim/internal/noc.", "noc"},
	{"ownsim/internal/stats.", "stats"},
	{"ownsim/internal/power.", "power"},
	{"ownsim/internal/probe.", "obs"},
	{"ownsim/internal/check.", "obs"},
	{"ownsim/internal/flightrec.", "obs"},
	{"ownsim/internal/obs.", "obs"},
	// The ledger's own work around the simulations: claim scoring, the
	// RF circuit models, figure assembly and the sweep driver.
	{"ownsim/internal/report.", "ledger"},
	{"ownsim/internal/rf.", "ledger"},
	{"ownsim/internal/dsp.", "ledger"},
	{"ownsim/internal/core.", "ledger"},
	// The profiler's own goroutine is the cost of tracing.
	{"runtime/pprof.", "trace"},
	{"runtime.", "runtime"},
	{"internal/runtime/", "runtime"},
	{"runtime/internal/", "runtime"},
	// The benchmark's own code.
	{"main.", "other"},
}

// figureFuncs are the ledger's figure generators; ledger.<key>_s is the
// CPU time of samples whose stack passes through one (ParallelMap
// workers included, so at GOMAXPROCS 2 they can sum to twice wall time).
var figureFuncs = []struct{ key, fn string }{
	{"fig5", "ownsim/internal/core.Figure5"},
	{"fig6", "ownsim/internal/core.Figure6"},
	{"fig7", "ownsim/internal/core.Figure7bc"},
	{"fig8", "ownsim/internal/core.Figure8"},
}

func matchRule(rules []rule, fn string) (string, bool) {
	for _, r := range rules {
		if strings.HasPrefix(fn, r.prefix) {
			return r.layer, true
		}
	}
	return "", false
}

// layerOf returns the layer a sample's self time is charged to; funcs
// runs from the leaf outwards.
func layerOf(funcs []string) string {
	for _, fn := range funcs {
		if l, ok := matchRule(setupRules, fn); ok {
			return l
		}
	}
	for _, fn := range funcs {
		if l, ok := matchRule(leafRules, fn); ok && l != "" {
			return l
		}
	}
	return "other"
}

// isFunc reports whether fn is name itself or one of its closures.
func isFunc(fn, name string) bool {
	return fn == name || strings.HasPrefix(fn, name+".")
}

// attribution is CPU seconds charged per layer and per figure.
type attribution struct {
	self    map[string]float64
	figures map[string]float64
}

func newAttribution() attribution {
	return attribution{self: map[string]float64{}, figures: map[string]float64{}}
}

// add charges every sample of a profile, scaled to reference-host
// seconds (hostref.go).
func (a attribution) add(stacks []stack, scale float64) {
	for _, s := range stacks {
		sec := float64(s.cpuNS) / 1e9 * scale
		a.self[layerOf(s.funcs)] += sec
		for _, f := range figureFuncs {
			for _, fn := range s.funcs {
				if isFunc(fn, f.fn) {
					a.figures[f.key] += sec
					break
				}
			}
		}
	}
}
