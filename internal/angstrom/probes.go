package angstrom

import (
	"fmt"

	"angstrom/internal/sim"
)

// CompareOp is an event-probe comparator operation (§4.1: "equal, less
// than, greater than and their logical inverses").
type CompareOp int

// The six comparator operations.
const (
	OpEQ CompareOp = iota
	OpNE
	OpLT
	OpGE // inverse of LT
	OpGT
	OpLE // inverse of GT
)

// String implements fmt.Stringer.
func (op CompareOp) String() string {
	switch op {
	case OpEQ:
		return "=="
	case OpNE:
		return "!="
	case OpLT:
		return "<"
	case OpGE:
		return ">="
	case OpGT:
		return ">"
	case OpLE:
		return "<="
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// Event is one probe match record.
type Event struct {
	Time    sim.Time
	Counter CounterID
	Value   uint64
}

// EventQueue is the "small hardware queue" a probe can feed (§4.1).
// When full, new records are dropped and counted — back-pressuring the
// processor would be worse than losing monitoring data.
type EventQueue struct {
	ring    []Event
	head    int
	n       int
	dropped uint64
}

// NewEventQueue builds a queue with the given capacity.
//
//lint:allow unusedexport the §4.1 probes and §4.3 partner core wait for ROADMAP B.2 (a daemon that observes itself)
func NewEventQueue(capacity int) (*EventQueue, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("angstrom: event queue capacity %d", capacity)
	}
	return &EventQueue{ring: make([]Event, capacity)}, nil
}

// Push appends an event, dropping it if the queue is full.
func (q *EventQueue) Push(e Event) {
	if q.n == len(q.ring) {
		q.dropped++
		return
	}
	q.ring[(q.head+q.n)%len(q.ring)] = e
	q.n++
}

// Pop removes the oldest event.
func (q *EventQueue) Pop() (Event, bool) {
	if q.n == 0 {
		return Event{}, false
	}
	e := q.ring[q.head]
	q.head = (q.head + 1) % len(q.ring)
	q.n--
	return e, true
}

// Len reports queued events; Dropped reports lost ones.
//
//lint:allow unusedexport the §4.1 probes and §4.3 partner core wait for ROADMAP B.2 (a daemon that observes itself)
func (q *EventQueue) Len() int { return q.n }

// Dropped reports how many events were lost to overflow.
//
//lint:allow unusedexport the §4.1 probes and §4.3 partner core wait for ROADMAP B.2 (a daemon that observes itself)
func (q *EventQueue) Dropped() uint64 { return q.dropped }

// Probe is one event probe (§4.1): a trigger register, a programmable
// comparator with a bit mask, and an action — either an interrupt
// (callback) or an event record pushed to a hardware queue.
//
// Matches are edge-triggered: the probe fires when the masked comparison
// transitions from false to true, mirroring hardware that raises one
// interrupt per event rather than one per cycle the condition holds.
type Probe struct {
	Counter CounterID
	Op      CompareOp
	Trigger uint64
	// Mask selects compared bits; zero means "all bits" for ergonomics.
	Mask uint64
	// Interrupt, if non-nil, is invoked on a match.
	Interrupt func(Event)
	// Queue, if non-nil, receives a record on a match.
	Queue *EventQueue

	armed bool // true when the condition was false at last evaluation
}

// Validate checks the probe's configuration.
func (p *Probe) Validate() error {
	if p.Counter < 0 || p.Counter >= NumCounters {
		return fmt.Errorf("angstrom: probe on unknown counter %d", p.Counter)
	}
	if p.Interrupt == nil && p.Queue == nil {
		return fmt.Errorf("angstrom: probe with no action")
	}
	return nil
}

func (p *Probe) matches(v uint64) bool {
	mask := p.Mask
	if mask == 0 {
		mask = ^uint64(0)
	}
	a, b := v&mask, p.Trigger&mask
	switch p.Op {
	case OpEQ:
		return a == b
	case OpNE:
		return a != b
	case OpLT:
		return a < b
	case OpGE:
		return a >= b
	case OpGT:
		return a > b
	case OpLE:
		return a <= b
	default:
		return false
	}
}

// ProbeSet is the per-tile collection of probes; Evaluate runs them
// against the tile's counter file.
//
//lint:allow unusedexport the §4.1 probes and §4.3 partner core wait for ROADMAP B.2 (a daemon that observes itself)
type ProbeSet struct {
	probes []*Probe
}

// Attach validates and adds a probe.
//
//lint:allow unusedexport the §4.1 probes and §4.3 partner core wait for ROADMAP B.2 (a daemon that observes itself)
func (s *ProbeSet) Attach(p *Probe) error {
	if err := p.Validate(); err != nil {
		return err
	}
	p.armed = true
	s.probes = append(s.probes, p)
	return nil
}

// Evaluate runs every comparator against the counter file, firing
// edge-triggered actions.
//
//lint:allow unusedexport the §4.1 probes and §4.3 partner core wait for ROADMAP B.2 (a daemon that observes itself)
func (s *ProbeSet) Evaluate(cf *CounterFile, now sim.Time) {
	for _, p := range s.probes {
		v := cf.Read(p.Counter)
		m := p.matches(v)
		if m && p.armed {
			e := Event{Time: now, Counter: p.Counter, Value: v}
			if p.Interrupt != nil {
				p.Interrupt(e)
			}
			if p.Queue != nil {
				p.Queue.Push(e)
			}
		}
		p.armed = !m
	}
}

// Len reports the number of attached probes.
//
//lint:allow unusedexport the §4.1 probes and §4.3 partner core wait for ROADMAP B.2 (a daemon that observes itself)
func (s *ProbeSet) Len() int { return len(s.probes) }
