package core

import (
	"fmt"

	"ownsim/internal/fabric"
	"ownsim/internal/power"
	"ownsim/internal/router"
	"ownsim/internal/topology"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// System is one simulatable architecture: a builder plus the injection
// policy and traffic classifier its routing discipline needs.
type System struct {
	// Name is the registry key ("own", "cmesh", "wcmesh", "optxb",
	// "pclos").
	Name string
	// Cores is the terminal count.
	Cores int
	// Build constructs a fresh network charging the given meter.
	Build func(m *power.Meter) *fabric.Network
	// Policy is the injection VC policy (nil = all VCs).
	Policy router.VCPolicy
	// Classify assigns traffic classes (nil = class 0).
	Classify traffic.Classifier
}

// SystemNames lists the evaluated architectures in the paper's
// presentation order.
func SystemNames() []string {
	return []string{"cmesh", "own", "optxb", "pclos", "wcmesh"}
}

// NewSystem returns the named architecture at the given scale. OWN takes
// the Table IV configuration and Table III scenario; the baselines ignore
// them except wireless-CMESH, whose channel bandwidth follows the
// scenario.
func NewSystem(name string, cores int, cfg wireless.Config, scen wireless.Scenario) System {
	tp := topology.Params{Cores: cores}
	if scen == wireless.Conservative {
		tp.WirelessBWGbps = 16
	}
	switch name {
	case "own":
		s := System{Name: name, Cores: cores}
		if cores == 256 {
			s.Build = func(m *power.Meter) *fabric.Network {
				return BuildOWN256(Params{Cores: cores, Config: cfg, Scenario: scen, Meter: m})
			}
			s.Policy = OWN256Policy
		} else {
			s.Build = func(m *power.Meter) *fabric.Network {
				return BuildOWN1024(Params{Cores: cores, Config: cfg, Scenario: scen, Meter: m})
			}
			s.Policy = OWN1024Policy
			s.Classify = Classify1024
		}
		return s
	case "cmesh":
		return System{Name: name, Cores: cores, Build: func(m *power.Meter) *fabric.Network {
			p := tp
			p.Meter = m
			return topology.BuildCMesh(p)
		}}
	case "wcmesh":
		return System{Name: name, Cores: cores, Build: func(m *power.Meter) *fabric.Network {
			p := tp
			p.Meter = m
			return topology.BuildWCMesh(p)
		}}
	case "optxb":
		return System{Name: name, Cores: cores, Build: func(m *power.Meter) *fabric.Network {
			p := tp
			p.Meter = m
			return topology.BuildOptXB(p)
		}}
	case "pclos":
		return System{Name: name, Cores: cores, Build: func(m *power.Meter) *fabric.Network {
			p := tp
			p.Meter = m
			return topology.BuildPClos(p)
		}}
	}
	panic(fmt.Sprintf("core: unknown system %q", name))
}

// Run builds a fresh instance of the system and executes one measured
// simulation.
func (s System) Run(ts fabric.TrafficSpec, rs fabric.RunSpec) fabric.Result {
	ts.Policy = s.Policy
	ts.Classify = s.Classify
	n := s.Build(power.NewMeter(nil))
	return n.Run(ts, rs)
}
