// Command ownsim runs one cycle-accurate NoC simulation and prints its
// performance and power summary.
//
// Examples:
//
//	ownsim -topo own -cores 256 -pattern uniform -load 0.004
//	ownsim -topo cmesh -cores 1024 -pattern bitreversal -load 0.001 -measure 20000
//	ownsim -topo own -config 1 -scenario conservative
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"ownsim/internal/core"
	"ownsim/internal/fabric"
	"ownsim/internal/flightrec"
	"ownsim/internal/obs"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/topology"
	"ownsim/internal/wireless"
)

// options are the shared observability flags plus ownsim's single-run
// knobs.
type options struct {
	*obs.Options
	topo, scenario, fail string
	load                 float64
	config               int
	reconfig             bool

	scen   wireless.Scenario
	failed []int
}

// parseFlags binds ownsim's flags on fs, parses args and validates them.
// Without -load the offered load is half the uniform saturation load at
// -cores.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{Options: obs.Bind(fs)}
	fs.StringVar(&o.topo, "topo", "own", "topology: own|cmesh|wcmesh|optxb|pclos")
	fs.Float64Var(&o.load, "load", 0, "offered load in flits/node/cycle (default half the uniform saturation load at -cores)")
	fs.IntVar(&o.config, "config", 4, "OWN Table IV configuration (1-4)")
	fs.StringVar(&o.scenario, "scenario", "ideal", "Table III scenario: ideal|conservative")
	fs.BoolVar(&o.reconfig, "reconfig", false, "bond the reserve channels (Table III links 13-16) onto the C2C links (OWN-256 only)")
	fs.StringVar(&o.fail, "fail", "", "comma-separated OWN-256 wireless channel IDs to take out of service")
	fs.BoolVar(&o.PerComponent, "percomponent", false, "register per-router/per-source metrics in addition to aggregates")
	wd := &o.Watchdog
	fs.Uint64Var(&wd.StarveBudgetCy, "watchdog-starve", 0, "trip the watchdog when a writer waits more than this many cycles for a channel token (0 = off)")
	fs.IntVar(&wd.StallWindows, "watchdog-stall", 0, "trip the watchdog after this many check windows without ejection progress while flits are in flight (0 = off)")
	fs.IntVar(&wd.SatWindows, "watchdog-sat", 0, "trip the watchdog after this many consecutive check windows with a channel >=95% busy (0 = off)")
	fs.Uint64Var(&wd.CheckEveryCy, "watchdog-every", flightrec.DefaultCheckEveryCy, "watchdog check window in simulated cycles")
	fs.DurationVar(&o.StallTimeout, "stall-timeout", 0, "dump goroutine stacks to stderr when the simulated cycle stops advancing for this long of wall time (0 = off)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}

	loadSet := false
	fs.Visit(func(f *flag.Flag) { loadSet = loadSet || f.Name == "load" })
	if !loadSet {
		o.load = 0.5 * topology.UniformSaturationLoad(o.Cores)
	}
	switch o.scenario {
	case "ideal":
		o.scen = wireless.Ideal
	case "conservative":
		o.scen = wireless.Conservative
	default:
		return nil, fmt.Errorf("unknown scenario %q", o.scenario)
	}
	if o.config < 1 || o.config > 4 {
		return nil, fmt.Errorf("config must be 1-4, got %d", o.config)
	}
	if o.fail != "" {
		for _, tok := range strings.Split(o.fail, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				return nil, fmt.Errorf("bad -fail entry %q: %v", tok, err)
			}
			o.failed = append(o.failed, id)
		}
	}
	return o, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ownsim: ")
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}

	sys := core.NewSystem(o.topo, o.Cores, wireless.Config(o.config), o.scen)
	if o.topo == "own" && o.Cores == 256 && (o.reconfig || len(o.failed) > 0) {
		// Rebuild with the OWN-256 extensions enabled.
		sys.Build = func(m *power.Meter) *fabric.Network {
			return core.BuildOWN256(core.Params{
				Config: wireless.Config(o.config), Scenario: o.scen,
				Meter: m, Reconfig: o.reconfig, FailedChannels: o.failed,
			})
		}
	} else if o.reconfig || len(o.failed) > 0 {
		log.Fatal("-reconfig and -fail apply only to -topo own -cores 256")
	}
	fmt.Printf("topology=%s cores=%d pattern=%s load=%.5f f/n/c (uniform capacity %.5f)\n",
		o.topo, o.Cores, o.Pattern, o.load, topology.UniformSaturationLoad(o.Cores))

	n := sys.Build(power.NewMeter(nil))
	s, err := obs.Open(n, o.Options, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	res := s.Run(fabric.TrafficSpec{Pattern: o.Pattern, Rate: o.load, Seed: o.Seed, Policy: sys.Policy, Classify: sys.Classify})

	fmt.Printf("\nperformance: %s\n", res.Summary)
	if !res.Drained {
		fmt.Println("  WARNING: measured packets did not drain — operating beyond saturation")
	}
	fmt.Printf("power:       %s\n", res.Power)
	if res.AvgWirelessChannelMW > 0 {
		fmt.Printf("wireless:    %.3f mW average per channel (Figure 5 metric)\n", res.AvgWirelessChannelMW)
	}
	fmt.Printf("energy/pkt:  %.0f pJ\n", core.EnergyPerPacketPJ(res, o.Cores))

	var man *probe.Manifest
	if o.Manifest != "" {
		sum := res.Summary
		wd := o.Watchdog
		man = &probe.Manifest{
			Tool: "ownsim",
			Config: map[string]string{
				"topo":            o.topo,
				"cores":           strconv.Itoa(o.Cores),
				"pattern":         o.Pattern.String(),
				"load":            strconv.FormatFloat(o.load, 'g', -1, 64),
				"config":          strconv.Itoa(o.config),
				"scenario":        o.scenario,
				"warmup":          strconv.FormatUint(o.Warmup, 10),
				"measure":         strconv.FormatUint(o.Measure, 10),
				"reconfig":        strconv.FormatBool(o.reconfig),
				"fail":            o.fail,
				"sample":          strconv.FormatUint(o.Sample, 10),
				"window":          strconv.FormatUint(o.Window, 10),
				"reservoir":       strconv.Itoa(o.Reservoir),
				"watchdog_every":  strconv.FormatUint(wd.CheckEveryCy, 10),
				"watchdog_starve": strconv.FormatUint(wd.StarveBudgetCy, 10),
				"watchdog_stall":  strconv.Itoa(wd.StallWindows),
				"watchdog_sat":    strconv.Itoa(wd.SatWindows),
				"check":           strconv.FormatBool(o.Check),
			},
			Cores:   o.Cores,
			Seed:    o.Seed,
			Cycles:  n.Eng.Cycle(),
			Summary: &sum,
			Build:   probe.ReadBuildInfo(),
		}
	}
	if err := s.Emit(man); err != nil {
		log.Fatal(err)
	}
	if man != nil {
		if err := probe.WriteManifestFile(man, o.Manifest); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("manifest:    %s\n", o.Manifest)
	}
	if err := s.Verdict(); err != nil {
		log.Fatal(err)
	}
}
