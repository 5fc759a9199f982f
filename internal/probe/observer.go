package probe

import "ownsim/internal/noc"

// Observer is the probe's per-component adapter: it feeds one source's,
// sink's, router's or shared channel's lifecycle events to the tracer
// and the span tracker, either of which may be nil. It implements
// router.SourceObserver, router.SinkObserver, router.RouterObserver and
// sbus.Observer; fabric.Network.InstallProbe attaches one per component.
// Its methods run per simulated event, so ownlint's hookpure rule keeps
// them allocation-free, clock-free and free of writes to shared state.
type Observer struct {
	t   *Tracer
	sp  *SpanTracker
	cid int
	// Shared-channel parameters, fixed once the topology is built and
	// resolved at install rather than re-derived per flit.
	serCy, propCy int
	transit       SpanPhase
	swmrFwd       bool
}

// NewObserver returns the adapter for one component, registering it
// with the tracer under name. Call once per component at wiring time,
// in deterministic order: the registration order fixes the trace's
// thread IDs.
func (p *Probe) NewObserver(name string) *Observer {
	o := &Observer{t: p.trc, sp: p.spn}
	if o.t != nil {
		o.cid = o.t.Component(name)
	}
	return o
}

// NewChannelObserver is NewObserver for a shared channel whose flits
// serialize for serCy cycles and fly for propCy more. Flight time is
// charged to the transit phase; swmrFwd marks SWMR hops, whose delivery
// is followed by an inter-group forward.
func (p *Probe) NewChannelObserver(name string, serCy, propCy int, transit SpanPhase, swmrFwd bool) *Observer {
	o := p.NewObserver(name)
	o.serCy, o.propCy, o.transit, o.swmrFwd = serCy, propCy, transit, swmrFwd
	return o
}

// emit records one event when the packet is sampled for tracing. The
// event methods below implement the component observer interfaces; per
// flit, only head flits are traced.
func (o *Observer) emit(cycle uint64, kind EventKind, p *noc.Packet, arg int) {
	if o.t.Sampled(p.ID) {
		o.t.Emit(cycle, o.cid, kind, p, arg)
	}
}

func (o *Observer) Enqueue(cycle uint64, p *noc.Packet) {
	o.sp.Enqueue(p, cycle)
	o.emit(cycle, EvEnqueue, p, 0)
}

func (o *Observer) Inject(cycle uint64, p *noc.Packet) {
	o.sp.Inject(p, cycle)
	o.emit(cycle, EvInject, p, 0)
}

func (o *Observer) Eject(cycle uint64, p *noc.Packet) {
	o.sp.Eject(p, cycle)
	o.emit(cycle, EvEject, p, 0)
}

func (o *Observer) Route(cycle uint64, p *noc.Packet, inPort, outPort int, vcMask uint32) {
	o.emit(cycle, EvRoute, p, outPort)
}

func (o *Observer) VCAlloc(cycle uint64, p *noc.Packet, outPort, outVC int) {
	o.emit(cycle, EvVCAlloc, p, outVC)
}

func (o *Observer) Switch(cycle uint64, f *noc.Flit, inPort, outPort, outVC int) {
	o.sp.Switch(cycle, f)
	if f.IsHead() {
		o.emit(cycle, EvSwitch, f.Pkt, outPort)
	}
}

func (o *Observer) Acquire(cycle uint64, p *noc.Packet, writer, rx, tokenCostCy int) {
	o.emit(cycle, EvTokenAcquire, p, tokenCostCy)
}

func (o *Observer) Release(cycle uint64, p *noc.Packet, writer int) {
	o.emit(cycle, EvTokenRelease, p, 0)
}

func (o *Observer) Transmit(cycle uint64, f *noc.Flit, rx int) {
	o.sp.ChannelTx(cycle, f, o.serCy, o.propCy, o.transit, o.swmrFwd)
	if f.IsHead() {
		o.emit(cycle, EvTransmit, f.Pkt, rx)
	}
}

// Send, Receive and Deliver complete the interfaces: the probe follows
// packets, not per-flit hand-offs.
func (*Observer) Send(uint64, *noc.Flit)         {}
func (*Observer) Receive(uint64, *noc.Flit)      {}
func (*Observer) Deliver(uint64, *noc.Flit, int) {}
