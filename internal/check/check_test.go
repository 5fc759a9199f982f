package check

import (
	"strings"
	"testing"

	"ownsim/internal/noc"
)

func mkpkt(id uint64, flits int) (*noc.Packet, []*noc.Flit) {
	p := &noc.Packet{ID: id, NumFlits: flits}
	return p, noc.MakeFlits(p)
}

// rules returns the distinct rule names among the recorded violations.
func rules(c *Checker) map[string]int {
	m := make(map[string]int)
	for _, v := range c.Violations() {
		m[v.Rule]++
	}
	return m
}

func TestConformanceUnitLifecycleClean(t *testing.T) {
	c := New()
	src := c.NewSourceMonitor(0)
	rt := c.NewRouterMonitor(3, nil, 4)
	snk := c.NewSinkMonitor(1)
	p, fl := mkpkt(7, 3)
	p.CreatedAt, p.InjectedAt = 10, 12
	for _, f := range fl {
		src.Send(12+uint64(f.Seq), f)
	}
	for _, f := range fl {
		rt.Switch(14+uint64(f.Seq), f, 0, 1, 0)
	}
	for _, f := range fl {
		snk.Receive(20+uint64(f.Seq), f)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("clean lifecycle reported: %v", err)
	}
	if c.Events() == 0 {
		t.Fatal("no events audited")
	}
	if c.LiveStates() != 0 {
		t.Fatalf("tail ejection left %d live ledgers", c.LiveStates())
	}
}

func TestConformanceUnitSourceOutOfOrder(t *testing.T) {
	c := New()
	src := c.NewSourceMonitor(0)
	_, fl := mkpkt(1, 3)
	src.Send(5, fl[1]) // seq 1 before seq 0
	if c.Total() == 0 || rules(c)[RuleConserve] == 0 {
		t.Fatalf("out-of-order launch not flagged: %v", c.Violations())
	}
}

func TestConformanceUnitSinkOutOfOrder(t *testing.T) {
	c := New()
	snk := c.NewSinkMonitor(0)
	_, fl := mkpkt(1, 3)
	snk.Receive(5, fl[1])
	if rules(c)[RuleFIFO] == 0 {
		t.Fatalf("out-of-order delivery not flagged: %v", c.Violations())
	}
}

func TestConformanceUnitTailConservation(t *testing.T) {
	c := New()
	src := c.NewSourceMonitor(0)
	snk := c.NewSinkMonitor(0)
	p, fl := mkpkt(2, 3)
	p.CreatedAt, p.InjectedAt = 1, 2
	for _, f := range fl {
		src.Send(3+uint64(f.Seq), f)
	}
	// Deliver head then tail, losing the body flit.
	snk.Receive(9, fl[0])
	snk.Receive(10, fl[2])
	if rules(c)[RuleConserve] == 0 {
		t.Fatalf("lost flit not flagged at tail: %v", c.Violations())
	}
	if c.LiveStates() != 0 {
		t.Fatal("tail must close the ledger even on violation")
	}
}

func TestConformanceUnitSinkTimestamps(t *testing.T) {
	c := New()
	snk := c.NewSinkMonitor(0)
	p, fl := mkpkt(3, 1)
	p.CreatedAt, p.InjectedAt = 50, 20 // injected before created
	snk.Receive(60, fl[0])
	if rules(c)[RuleTime] == 0 {
		t.Fatalf("inverted timestamp chain not flagged: %v", c.Violations())
	}
}

func TestConformanceUnitTimestampRegression(t *testing.T) {
	c := New()
	rt := c.NewRouterMonitor(0, nil, 0)
	p, fl := mkpkt(4, 1)
	rt.Switch(100, fl[0], 0, 1, 0)
	// A later event for the same packet carrying an earlier cycle.
	c.touch(90, p, "router 0")
	if rules(c)[RuleTime] == 0 {
		t.Fatalf("cycle regression not flagged: %v", c.Violations())
	}
}

func TestConformanceUnitRecycleMidFlight(t *testing.T) {
	c := New()
	src := c.NewSourceMonitor(5)
	p, fl := mkpkt(9, 3)
	src.Send(2, fl[0])
	c.Recycle(p)
	if rules(c)[RuleConserve] == 0 {
		t.Fatalf("mid-flight recycle not flagged: %v", c.Violations())
	}
	if c.LiveStates() != 0 {
		t.Fatal("recycle must drop the ledger")
	}
	// A packet never launched (dropped at the source queue) is legal.
	c2 := New()
	q, _ := mkpkt(10, 3)
	c2.Recycle(q)
	if c2.Total() != 0 {
		t.Fatalf("unlaunched recycle flagged: %v", c2.Violations())
	}
}

func TestConformanceUnitTokenDoubleGrant(t *testing.T) {
	c := New()
	m := c.NewChannelMonitor("photonic.t/home0.0")
	a, _ := mkpkt(1, 2)
	b, _ := mkpkt(2, 2)
	m.Acquire(10, a, 3, 0, 0)
	m.Acquire(11, b, 5, 1, 0)
	if rules(c)[RuleToken] == 0 {
		t.Fatalf("double grant not flagged: %v", c.Violations())
	}
	v := c.Violations()[0]
	if v.Component != "photonic.t/home0.0" || !strings.Contains(v.Detail, "writer 3") {
		t.Fatalf("violation does not name the holder: %+v", v)
	}
}

func TestConformanceUnitTokenReleaseMismatch(t *testing.T) {
	c := New()
	m := c.NewChannelMonitor("ch")
	a, _ := mkpkt(1, 2)
	// Release while free.
	m.Release(5, a, 0)
	if rules(c)[RuleToken] != 1 {
		t.Fatalf("free-release not flagged: %v", c.Violations())
	}
	// Release by the wrong writer.
	m.Acquire(6, a, 2, 0, 0)
	m.Release(7, a, 4)
	if rules(c)[RuleToken] != 2 {
		t.Fatalf("wrong-writer release not flagged: %v", c.Violations())
	}
	// Clean grant/release pair after the breaches.
	b, _ := mkpkt(2, 2)
	m.Acquire(8, b, 1, 0, 0)
	m.Release(9, b, 1)
	if c.Total() != 2 {
		t.Fatalf("clean pair flagged: %v", c.Violations())
	}
}

func TestConformanceUnitChannelDeliverFIFO(t *testing.T) {
	c := New()
	m := c.NewChannelMonitor("ch")
	_, fl := mkpkt(1, 3)
	m.Deliver(10, fl[0], 0)
	m.Deliver(11, fl[2], 0) // skips the body flit
	if rules(c)[RuleFIFO] == 0 {
		t.Fatalf("channel delivery gap not flagged: %v", c.Violations())
	}
}

func TestConformanceUnitRouteMismatch(t *testing.T) {
	c := New()
	table := func(p *noc.Packet, in int) (int, uint32) { return 2, 0x3 }
	m := c.NewRouterMonitor(7, table, 8)
	p, _ := mkpkt(1, 2)
	m.Route(10, p, 0, 2, 0x3) // matches the table
	if c.Total() != 0 {
		t.Fatalf("legal route flagged: %v", c.Violations())
	}
	q, _ := mkpkt(2, 2)
	m2 := c.NewRouterMonitor(8, table, 8)
	m2.Route(11, q, 0, 1, 0x3) // wrong port
	if rules(c)[RuleRoute] == 0 {
		t.Fatalf("illegal port not flagged: %v", c.Violations())
	}
	r, _ := mkpkt(3, 2)
	m3 := c.NewRouterMonitor(9, table, 8)
	m3.Route(12, r, 0, 2, 0x1) // wrong mask
	if rules(c)[RuleRoute] != 2 {
		t.Fatalf("illegal VC mask not flagged: %v", c.Violations())
	}
}

func TestConformanceUnitRevisitAndDiameter(t *testing.T) {
	c := New()
	m1 := c.NewRouterMonitor(1, nil, 2)
	m2 := c.NewRouterMonitor(2, nil, 2)
	p, _ := mkpkt(1, 2)
	m1.Route(10, p, 0, 1, 1)
	m2.Route(11, p, 0, 1, 1)
	m1.Route(12, p, 0, 1, 1) // revisits router 1 and exceeds diameter 2
	got := rules(c)
	if got[RuleRoute] < 2 {
		t.Fatalf("revisit/diameter breaches not both flagged: %v", c.Violations())
	}
}

func TestConformanceUnitReportCapAndErr(t *testing.T) {
	c := New()
	c.MaxViolations = 2
	if c.Err() != nil {
		t.Fatal("empty checker reports an error")
	}
	for i := 0; i < 5; i++ {
		c.Report(uint64(i), RuleState, "x", "boom")
	}
	if len(c.Violations()) != 2 {
		t.Fatalf("recorded %d violations, want cap 2", len(c.Violations()))
	}
	if c.Total() != 5 {
		t.Fatalf("Total = %d, want 5", c.Total())
	}
	err := c.Err()
	if err == nil || !strings.Contains(err.Error(), "5 violation(s)") {
		t.Fatalf("Err = %v", err)
	}
}

func TestConformanceUnitOnViolationObserves(t *testing.T) {
	c := New()
	var seen []Violation
	c.OnViolation = func(v Violation) { seen = append(seen, v) }
	c.Report(3, RuleCredit, "router 1", "credit -1")
	if len(seen) != 1 || seen[0].Rule != RuleCredit {
		t.Fatalf("OnViolation saw %v", seen)
	}
}

func TestConformanceUnitViolationString(t *testing.T) {
	v := Violation{Cycle: 42, Rule: RuleToken, Component: "photonic.cl0/home3.1", Detail: "two holders"}
	want := "cycle 42: photonic.cl0/home3.1: token: two holders"
	if v.String() != want {
		t.Fatalf("String = %q, want %q", v.String(), want)
	}
}

func TestConformanceUnitCompareLogs(t *testing.T) {
	ev := func(id uint64, ej uint64) PacketEvent {
		return PacketEvent{ID: id, Src: 0, Dst: 1, CreatedAt: 1, InjectedAt: 2, EjectedAt: ej, Hops: 2}
	}
	a := &DeliveryLog{Events: []PacketEvent{ev(1, 10), ev(2, 12)}}
	b := &DeliveryLog{Events: []PacketEvent{ev(1, 10), ev(2, 12)}}
	if err := CompareLogs(a, b); err != nil {
		t.Fatalf("identical logs diverge: %v", err)
	}
	// Latency divergence at event 1.
	c := &DeliveryLog{Events: []PacketEvent{ev(1, 10), ev(2, 13)}}
	if err := CompareLogs(a, c); err == nil || !strings.Contains(err.Error(), "event 1") {
		t.Fatalf("value divergence not reported: %v", err)
	}
	// Length divergence.
	d := &DeliveryLog{Events: []PacketEvent{ev(1, 10)}}
	if err := CompareLogs(a, d); err == nil || !strings.Contains(err.Error(), "length") {
		t.Fatalf("length divergence not reported: %v", err)
	}
}

func TestConformanceUnitDeliveryLogRecord(t *testing.T) {
	l := &DeliveryLog{}
	p := &noc.Packet{ID: 5, Src: 1, Dst: 2, NumFlits: 3, CreatedAt: 10, InjectedAt: 12, Hops: 4}
	l.Eject(30, p)
	if len(l.Events) != 1 {
		t.Fatal("event not recorded")
	}
	e := l.Events[0]
	if e.ID != 5 || e.EjectedAt != 30 || e.Hops != 4 {
		t.Fatalf("event = %+v", e)
	}
	if !strings.Contains(e.String(), "pkt 5 1->2") {
		t.Fatalf("String = %q", e.String())
	}
}

// TestConformanceUnitLedgerReuse pins the freelist: a closed ledger's
// storage is reused for the next packet with a clean slate.
func TestConformanceUnitLedgerReuse(t *testing.T) {
	c := New()
	src := c.NewSourceMonitor(0)
	rt := c.NewRouterMonitor(1, nil, 8)
	snk := c.NewSinkMonitor(0)
	p, fl := mkpkt(1, 1)
	p.CreatedAt, p.InjectedAt = 1, 2
	src.Send(3, fl[0])
	rt.Route(5, p, 0, 1, 1)
	snk.Receive(9, fl[0])
	if c.LiveStates() != 0 {
		t.Fatal("ledger not closed")
	}
	q, qf := mkpkt(2, 1)
	q.CreatedAt, q.InjectedAt = 10, 11
	src.Send(12, qf[0])
	rt.Route(15, q, 0, 1, 1) // reused visited slice must not contain router 1 already
	snk.Receive(19, qf[0])
	if err := c.Err(); err != nil {
		t.Fatalf("reused ledger carried stale state: %v", err)
	}
}
