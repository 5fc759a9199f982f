package router

import (
	"fmt"

	"ownsim/internal/noc"
	"ownsim/internal/sim"
)

// SinkObserver receives a sink's delivery events. Like every component
// observer it only records (see RouterObserver).
type SinkObserver interface {
	// Receive fires for every delivered flit, before its credit is
	// returned.
	Receive(cycle uint64, f *noc.Flit)
	// Eject fires when a packet's tail arrives, after OnPacket and
	// before the packet is recycled.
	Eject(cycle uint64, p *noc.Packet)
}

// Sink is the ejection endpoint of one core. It implements
// noc.FlitReceiver; the channel feeding it supplies credits through the
// usual CreditReturner path, which the sink releases immediately (ejection
// buffers drain into the core at full rate).
type Sink struct {
	// CoreID is the terminal identifier.
	CoreID int
	// OnPacket is invoked when a packet's tail flit arrives, with the
	// ejection cycle. The statistics collector hooks in here.
	OnPacket func(p *noc.Packet, cycle uint64)
	// Observers see the delivery events in install order, kept
	// separate from OnPacket (which the statistics collector owns);
	// empty disables.
	Observers []SinkObserver

	upstream noc.CreditReturner
	eng      *sim.Engine
	now      uint64

	expected map[uint64]int // packet ID -> next expected seq, for ordering checks
	// Ejected counts completed packets.
	Ejected uint64
}

// NewSink creates a sink for the given core.
func NewSink(coreID int) *Sink {
	return &Sink{CoreID: coreID, expected: make(map[uint64]int)}
}

// SetUpstream installs the credit-return path of the channel feeding this
// sink. Must be called before simulation.
func (s *Sink) SetUpstream(u noc.CreditReturner) { s.upstream = u }

// SetClock points the sink at the engine's cycle counter, removing the
// need to tick it every cycle just to track time. Sinks with a clock need
// no engine registration at all: they only ever react to ReceiveFlit.
func (s *Sink) SetClock(e *sim.Engine) { s.eng = e }

// Tick implements sim.Ticker; it runs in the Delivery phase purely to
// track the current cycle (sinks must be registered before the wires that
// feed them). Sinks given SetClock are not registered and never tick.
func (s *Sink) Tick(cycle uint64) { s.now = cycle }

// clock returns the current cycle from the engine when installed, else
// the last ticked cycle.
func (s *Sink) clock() uint64 {
	if s.eng != nil {
		return s.eng.Cycle()
	}
	return s.now
}

// ReceiveFlit implements noc.FlitReceiver.
func (s *Sink) ReceiveFlit(_ int, f *noc.Flit) {
	p := f.Pkt
	if p.Dst != s.CoreID {
		panic(fmt.Sprintf("router: sink %d: misrouted packet %d (src %d dst %d)", s.CoreID, p.ID, p.Src, p.Dst))
	}
	if want := s.expected[p.ID]; f.Seq != want {
		panic(fmt.Sprintf("router: sink %d: packet %d flit out of order: seq %d, want %d", s.CoreID, p.ID, f.Seq, want))
	}
	s.expected[p.ID] = f.Seq + 1
	for _, o := range s.Observers {
		o.Receive(s.clock(), f)
	}
	// Ejection buffer drains immediately; return the credit.
	if s.upstream != nil {
		s.upstream.ReturnCredit(f.VC)
	}
	if f.IsTail() {
		now := s.clock()
		delete(s.expected, p.ID)
		p.EjectedAt = now
		s.Ejected++
		if s.OnPacket != nil {
			s.OnPacket(p, now)
		}
		for _, o := range s.Observers {
			o.Eject(now, p)
		}
		// The tail is the last flit of the packet to be consumed
		// (in-order per-VC delivery), so the lifetime ends here; observers
		// above must not have retained the packet (see noc.Pool).
		noc.Recycle(p)
	}
}
