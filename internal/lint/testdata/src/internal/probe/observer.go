// Observer-method fixture for the hookpure analyzer: every method of a
// type named *Observer runs per simulated event and must stay pure.
package probe

import "os"

type tracer struct {
	events []int
}

// Emit is the aggregating type's own method: it may allocate.
func (t *tracer) Emit(id int) {
	t.events = append(t.events, id)
}

type traceObserver struct {
	t     *tracer
	count int
	last  [4]int
}

func (o *traceObserver) Enqueue(id int) {
	ids := []int{id} // seeded: composite-literal allocation per event
	o.t.Emit(ids[0])
}

func (o *traceObserver) Inject(id int) {
	o.count++ // seeded: mutation of the observer's own state
}

func (o *traceObserver) Eject(id int) {
	_ = os.Getpid() // seeded: process-state read
}

func (o *traceObserver) Route(id int) {
	o.t.Emit(id) // delegating to the aggregator is fine
	var buf [2]int
	buf[0] = id // locals are fine
	_ = buf
}

func (o traceObserver) Switch(id int) {
	o.last[0] = id // value receiver: a local copy, must not be flagged
}

// stats is not an observer: its methods are out of scope.
type stats struct{ n int }

func (s *stats) Add(id int) {
	s.n += id
	_ = make([]int, id)
}

var _ = (*traceObserver).Enqueue
var _ = (*stats).Add
