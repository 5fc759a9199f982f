// Package check is the simulator's conformance layer: a runtime invariant
// engine that continuously audits protocol state while a simulation runs,
// plus the event-log types behind the differential reference oracle
// (fabric.DiffRuns).
//
// The Checker observes the network through one monitor per source, sink,
// router and shared channel, plus itself on every packet pool — plain
// observers on the components' observer lists, like the probe's and the
// flight recorder's, so an uninstalled checker costs one predictable
// branch per event site and an installed one never mutates simulation
// state (a checked run's Result is bit-identical
// to an unchecked one). The invariant catalog (see DESIGN.md §14):
//
//   - conserve: every flit a source launches is delivered exactly once; a
//     packet's tail closes with launched == delivered == NumFlits, and a
//     pooled packet is never recycled mid-flight
//   - token: at most one (writer, packet) holds an MWSR waveguide or SWMR
//     group at a time, and only the holder releases it
//   - fifo: per virtual channel, a packet's flits cross every router and
//     shared channel in strictly ascending Seq order
//   - route: the output port a router's pipeline uses matches a fresh
//     evaluation of the topology's routing table, no router is visited
//     twice by one packet, and path lengths respect the diameter bound
//   - timestamp: every event a packet participates in carries a
//     non-decreasing cycle, and CreatedAt <= InjectedAt <= EjectedAt
//   - credit/state: periodic structural sweeps of router and channel
//     CheckInvariants (credits within [0, depth], queue accounting)
//
// Violations are recorded (bounded by MaxViolations) and surfaced through
// OnViolation, which fabric.Network.InstallChecker wires to a
// flight-recorder snapshot naming the offending component and cycle.
package check

import (
	"fmt"

	"ownsim/internal/noc"
	"ownsim/internal/router"
)

// Rule names for Violation.Rule.
const (
	RuleConserve = "conserve"
	RuleToken    = "token"
	RuleFIFO     = "fifo"
	RuleRoute    = "route"
	RuleTime     = "timestamp"
	RuleCredit   = "credit"
	RuleState    = "state"
)

// DefaultMaxViolations bounds recorded violation detail; the total count
// keeps running past it.
const DefaultMaxViolations = 64

// DefaultSweepEveryCy is the period of the structural invariant sweep
// (router/channel CheckInvariants) when SweepEveryCy is unset.
const DefaultSweepEveryCy = 1024

// Violation is one detected invariant breach.
type Violation struct {
	// Cycle is the simulated cycle the breach was observed.
	Cycle uint64
	// Rule is the invariant class (Rule* constants).
	Rule string
	// Component names the offending element ("photonic.cl0/home3.1",
	// "router 12", "source 5").
	Component string
	// Detail is a human-readable description of the breach.
	Detail string
}

// String renders the violation as "cycle N: component: rule: detail".
func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: %s: %s: %s", v.Cycle, v.Component, v.Rule, v.Detail)
}

// Checker is the runtime invariant engine. Create one with New, install it
// with fabric.Network.InstallChecker before Run, and interrogate it after
// (or during, through OnViolation). A Checker belongs to exactly one
// single-threaded simulation and must not be shared across networks.
type Checker struct {
	// MaxViolations caps recorded detail; 0 means DefaultMaxViolations.
	// The total count (Total) keeps running past the cap.
	MaxViolations int
	// SweepEveryCy is the structural-sweep period in cycles; 0 means
	// DefaultSweepEveryCy.
	SweepEveryCy uint64
	// OnViolation, when set, observes every counted violation as it
	// happens. fabric.Network.InstallChecker owns it — it wraps any
	// previously-set callback with the snapshot-on-first-violation
	// machinery — so set it before installing.
	OnViolation func(Violation)

	violations []Violation
	total      uint64
	events     uint64

	pkts map[uint64]*pktState
	free []*pktState
}

// New returns an empty checker with default bounds.
func New() *Checker {
	return &Checker{pkts: make(map[uint64]*pktState)}
}

// Violations returns the recorded violations in detection order (at most
// MaxViolations of them).
func (c *Checker) Violations() []Violation { return c.violations }

// Total returns the number of violations detected, including any past the
// recording cap.
func (c *Checker) Total() uint64 { return c.total }

// Events returns the number of hook events audited; tests use it to prove
// the wiring is live.
func (c *Checker) Events() uint64 { return c.events }

// Err returns nil when no violation was detected, else an error quoting
// the first one.
func (c *Checker) Err() error {
	if c.total == 0 {
		return nil
	}
	return fmt.Errorf("check: %d violation(s); first: %s", c.total, c.violations[0])
}

// Report counts (and, within MaxViolations, records) a violation. The
// fabric structural sweep and fault-injection fixtures call it; the
// monitors use it internally.
func (c *Checker) Report(cycle uint64, rule, component, detail string) {
	c.report(Violation{Cycle: cycle, Rule: rule, Component: component, Detail: detail})
}

func (c *Checker) report(v Violation) {
	c.total++
	max := c.MaxViolations
	if max <= 0 {
		max = DefaultMaxViolations
	}
	if len(c.violations) < max {
		c.violations = append(c.violations, v)
	}
	if c.OnViolation != nil {
		c.OnViolation(v)
	}
}

// sweepEvery returns the effective structural-sweep period.
func (c *Checker) SweepEvery() uint64 {
	if c.SweepEveryCy == 0 {
		return DefaultSweepEveryCy
	}
	return c.SweepEveryCy
}

// pktState is the checker's per-live-packet ledger, opened at the first
// source flit and closed at the sink tail (or at recycle).
type pktState struct {
	numFlits  int
	launched  int
	delivered int
	lastCycle uint64
	visited   []int // router IDs the head traversed, in order
}

// state returns (creating if needed) the ledger for p.
func (c *Checker) state(p *noc.Packet) *pktState {
	if st, ok := c.pkts[p.ID]; ok {
		return st
	}
	var st *pktState
	if n := len(c.free); n > 0 {
		st = c.free[n-1]
		c.free = c.free[:n-1]
		*st = pktState{visited: st.visited[:0]}
	} else {
		st = &pktState{}
	}
	c.pkts[p.ID] = st
	return st
}

// drop closes p's ledger and returns its storage to the freelist.
func (c *Checker) drop(id uint64) {
	if st, ok := c.pkts[id]; ok {
		delete(c.pkts, id)
		c.free = append(c.free, st)
	}
}

// LiveStates returns the number of open per-packet ledgers (packets
// launched but not yet ejected or recycled); diagnostics and leak tests
// read it.
func (c *Checker) LiveStates() int { return len(c.pkts) }

// touch audits the monotonic-timestamp invariant: events involving one
// packet must carry non-decreasing cycles.
func (c *Checker) touch(cycle uint64, p *noc.Packet, component string) {
	st := c.state(p)
	if cycle < st.lastCycle {
		c.report(Violation{Cycle: cycle, Rule: RuleTime, Component: component,
			Detail: fmt.Sprintf("pkt %d event at cycle %d after cycle %d", p.ID, cycle, st.lastCycle)})
		return
	}
	st.lastCycle = cycle
}

// Recycle audits a packet's return to its pool: a pooled packet whose
// flits entered the network may only be recycled after full delivery.
// The Checker is every source pool's noc.PoolObserver.
func (c *Checker) Recycle(p *noc.Packet) {
	c.events++
	st, ok := c.pkts[p.ID]
	if !ok {
		return // never launched (dropped at the source queue): legal
	}
	if st.delivered != st.launched || st.delivered != p.NumFlits {
		c.report(Violation{Cycle: st.lastCycle, Rule: RuleConserve,
			Component: fmt.Sprintf("source %d", p.Src),
			Detail: fmt.Sprintf("pkt %d recycled mid-flight: launched %d, delivered %d of %d flits",
				p.ID, st.launched, st.delivered, p.NumFlits)})
	}
	c.drop(p.ID)
}

// Monitor audits one component's event stream: a source's launches, a
// sink's deliveries, a router's pipeline decisions, or a shared
// channel's token arbitration and deliveries. It implements every
// component observer interface (router.SourceObserver, SinkObserver,
// RouterObserver, sbus.Observer); each component fires only its own
// events, and the rest are no-ops.
type Monitor struct {
	c    *Checker
	id   int
	name string

	// Routers: the routing table re-evaluated at every route
	// computation, and the path-length bound (0 = none).
	route    router.RouteFunc
	diameter int
	// Routers and channels: each in-flight packet's next expected Seq.
	nextSeq map[uint64]int
	// Channels: the current token holder.
	held         bool
	lockedPkt    uint64
	lockedWriter int
}

// NewSourceMonitor returns the monitor for core coreID's source.
func (c *Checker) NewSourceMonitor(coreID int) *Monitor {
	return &Monitor{c: c, name: fmt.Sprintf("source %d", coreID)}
}

// NewSinkMonitor returns the monitor for core coreID's sink.
func (c *Checker) NewSinkMonitor(coreID int) *Monitor {
	return &Monitor{c: c, name: fmt.Sprintf("sink %d", coreID)}
}

// NewRouterMonitor returns the monitor for router id. route is the
// topology's routing table for that router (re-evaluated to audit the
// pipeline's decisions; routing in this repository is deterministic, so a
// second evaluation is side-effect free); diameter > 0 bounds path
// lengths.
func (c *Checker) NewRouterMonitor(id int, route router.RouteFunc, diameter int) *Monitor {
	return &Monitor{c: c, id: id, name: fmt.Sprintf("router %d", id), route: route, diameter: diameter,
		nextSeq: make(map[uint64]int)}
}

// NewChannelMonitor returns the monitor for the named shared channel.
func (c *Checker) NewChannelMonitor(name string) *Monitor {
	return &Monitor{c: c, name: name, lockedWriter: -1, nextSeq: make(map[uint64]int)}
}

// Send audits one flit a source injects: it must extend the packet's
// launch ledger in Seq order.
func (m *Monitor) Send(cycle uint64, f *noc.Flit) {
	c := m.c
	c.events++
	st := c.state(f.Pkt)
	if f.Seq != st.launched {
		c.report(Violation{Cycle: cycle, Rule: RuleConserve, Component: m.name,
			Detail: fmt.Sprintf("pkt %d launched flit seq %d, want %d", f.Pkt.ID, f.Seq, st.launched)})
	}
	st.launched++
	st.numFlits = f.Pkt.NumFlits
	c.touch(cycle, f.Pkt, m.name)
}

// Receive audits one flit a sink delivers; the tail closes the
// conservation ledger (launched == delivered == NumFlits) and the
// packet's timestamp chain.
func (m *Monitor) Receive(cycle uint64, f *noc.Flit) {
	c := m.c
	c.events++
	p := f.Pkt
	st := c.state(p)
	if f.Seq != st.delivered {
		c.report(Violation{Cycle: cycle, Rule: RuleFIFO, Component: m.name,
			Detail: fmt.Sprintf("pkt %d delivered flit seq %d, want %d", p.ID, f.Seq, st.delivered)})
	}
	st.delivered++
	c.touch(cycle, p, m.name)
	if !f.IsTail() {
		return
	}
	if st.launched != p.NumFlits || st.delivered != p.NumFlits {
		c.report(Violation{Cycle: cycle, Rule: RuleConserve, Component: m.name,
			Detail: fmt.Sprintf("pkt %d tail ejected with %d launched / %d delivered of %d flits",
				p.ID, st.launched, st.delivered, p.NumFlits)})
	}
	if p.InjectedAt < p.CreatedAt || cycle < p.InjectedAt {
		c.report(Violation{Cycle: cycle, Rule: RuleTime, Component: m.name,
			Detail: fmt.Sprintf("pkt %d timestamps out of order: created %d, injected %d, ejected %d",
				p.ID, p.CreatedAt, p.InjectedAt, cycle)})
	}
	c.drop(p.ID)
}

// Route audits one route computation: the pipeline's decision must match
// a fresh evaluation of the routing table, the packet must not revisit a
// router, and its path must respect the diameter bound.
func (m *Monitor) Route(cycle uint64, p *noc.Packet, inPort, outPort int, vcMask uint32) {
	c := m.c
	c.events++
	if m.route != nil {
		wantPort, wantMask := m.route(p, inPort)
		if wantPort != outPort || wantMask != vcMask {
			c.report(Violation{Cycle: cycle, Rule: RuleRoute, Component: m.name,
				Detail: fmt.Sprintf("pkt %d (src %d dst %d, in %d): pipeline chose out %d mask %#x, routing table says out %d mask %#x",
					p.ID, p.Src, p.Dst, inPort, outPort, vcMask, wantPort, wantMask)})
		}
	}
	st := c.state(p)
	for _, r := range st.visited {
		if r == m.id {
			c.report(Violation{Cycle: cycle, Rule: RuleRoute, Component: m.name,
				Detail: fmt.Sprintf("pkt %d (src %d dst %d) revisits router %d; path %v", p.ID, p.Src, p.Dst, m.id, st.visited)})
			break
		}
	}
	st.visited = append(st.visited, m.id)
	if m.diameter > 0 && len(st.visited) > m.diameter {
		c.report(Violation{Cycle: cycle, Rule: RuleRoute, Component: m.name,
			Detail: fmt.Sprintf("pkt %d path length %d exceeds diameter %d", p.ID, len(st.visited), m.diameter)})
	}
	c.touch(cycle, p, m.name)
}

// Switch audits one switch-allocation grant: a packet's flits cross the
// router in strictly ascending Seq order (per-VC FIFO through the
// wormhole pipeline).
func (m *Monitor) Switch(cycle uint64, f *noc.Flit, inPort, outPort, outVC int) {
	if want, ok := m.inOrder(f); !ok {
		m.c.report(Violation{Cycle: cycle, Rule: RuleFIFO, Component: m.name,
			Detail: fmt.Sprintf("pkt %d crossed switch with flit seq %d, want %d (in %d -> out %d vc %d)",
				f.Pkt.ID, f.Seq, want, inPort, outPort, outVC)})
	}
	m.c.touch(cycle, f.Pkt, m.name)
}

// Acquire audits one token grant: the medium must be free (single token
// holder per MWSR waveguide / SWMR group).
func (m *Monitor) Acquire(cycle uint64, p *noc.Packet, writer, rx, tokenCostCy int) {
	c := m.c
	c.events++
	if m.held {
		c.report(Violation{Cycle: cycle, Rule: RuleToken, Component: m.name,
			Detail: fmt.Sprintf("token granted to writer %d (pkt %d) while writer %d still holds it for pkt %d",
				writer, p.ID, m.lockedWriter, m.lockedPkt)})
	}
	m.held = true
	m.lockedPkt = p.ID
	m.lockedWriter = writer
	c.touch(cycle, p, m.name)
}

// Release audits one lock release: only the current holder may release,
// and only for the packet it was granted for.
func (m *Monitor) Release(cycle uint64, p *noc.Packet, writer int) {
	c := m.c
	c.events++
	switch {
	case !m.held:
		c.report(Violation{Cycle: cycle, Rule: RuleToken, Component: m.name,
			Detail: fmt.Sprintf("writer %d released pkt %d but the medium is free", writer, p.ID)})
	case p.ID != m.lockedPkt || writer != m.lockedWriter:
		c.report(Violation{Cycle: cycle, Rule: RuleToken, Component: m.name,
			Detail: fmt.Sprintf("writer %d released pkt %d but writer %d holds the lock for pkt %d",
				writer, p.ID, m.lockedWriter, m.lockedPkt)})
	}
	m.held = false
	c.touch(cycle, p, m.name)
}

// Deliver audits one flit landing at a channel receiver: whole-packet
// locking plus constant propagation make per-channel deliveries arrive
// in Seq order per packet.
func (m *Monitor) Deliver(cycle uint64, f *noc.Flit, rx int) {
	if want, ok := m.inOrder(f); !ok {
		m.c.report(Violation{Cycle: cycle, Rule: RuleFIFO, Component: m.name,
			Detail: fmt.Sprintf("pkt %d delivered flit seq %d to rx %d, want %d", f.Pkt.ID, f.Seq, rx, want)})
	}
	m.c.touch(cycle, f.Pkt, m.name)
}

// inOrder counts one audited flit event and advances the flit's packet
// along this component's FIFO ledger, reporting the Seq it expected and
// whether f matched it.
func (m *Monitor) inOrder(f *noc.Flit) (want int, ok bool) {
	m.c.events++
	pid := f.Pkt.ID
	want = m.nextSeq[pid]
	if f.IsTail() {
		delete(m.nextSeq, pid)
	} else {
		m.nextSeq[pid] = f.Seq + 1
	}
	return want, f.Seq == want
}

// Enqueue, Inject, Eject, VCAlloc and Transmit complete the observer
// interfaces: conservation is audited per flit, VC ownership by the
// structural sweep, and channel order at Deliver.
func (*Monitor) Enqueue(uint64, *noc.Packet)           {}
func (*Monitor) Inject(uint64, *noc.Packet)            {}
func (*Monitor) Eject(uint64, *noc.Packet)             {}
func (*Monitor) VCAlloc(uint64, *noc.Packet, int, int) {}
func (*Monitor) Transmit(uint64, *noc.Flit, int)       {}
