// Package noc models Angstrom's on-chip network (§4.2.2) as the
// trace-driven simulator behind Figure 2 uses it: a 2-D mesh with
// dimension-ordered (XY) routing and EVC, express virtual channels [8]:
// flits moving straight through a router bypass buffering and
// arbitration, cutting latency on non-turning hops.
//
// The mesh is modelled at zero load: a packet's latency is its per-hop
// router pipeline plus link traversal. The paper's other adaptations —
// BAN's bandwidth split between opposing links and AOR's per-flow route
// choice — only act on a loaded network, and no figure drives one.
// Cross-partition network contention on the shared chip is priced by
// the angstrom package's contention ledger instead.
//
// Per-pair latencies are memoized in a dense n×n table indexed by
// src*n+dst, so a warmed mesh answers LatencyCycles with one array load
// and no allocation — the property the simulator's hot loop depends on.
package noc

import "fmt"

// Direction of a link out of a router.
type Direction int

// The four mesh directions.
const (
	East Direction = iota
	West
	North
	South
)

// Config describes the network hardware.
type Config struct {
	Width, Height int
	// RouterCycles is the full router pipeline latency per hop
	// (buffer write + arbitration + switch traversal).
	RouterCycles float64
	// LinkCycles is the wire traversal latency per hop.
	LinkCycles float64
	// EVC enables express-channel bypass on straight-through hops.
	EVC bool
	// EVCCycles is the bypassed router latency on express hops.
	EVCCycles float64
}

// DefaultConfig returns a w×h mesh with parameters typical of low-swing
// 32 nm NoCs (cf. [8]): 3-cycle routers, 1-cycle links.
func DefaultConfig(w, h int) Config {
	return Config{
		Width: w, Height: h,
		RouterCycles: 3, LinkCycles: 1,
		EVCCycles: 1,
	}
}

// Mesh is the network instance: its topology and the per-pair latency
// memo.
type Mesh struct {
	cfg Config
	n   int
	// lat memoizes LatencyCycles per (src, dst); 0 marks a pair not yet
	// computed (a positive hop cost makes every src ≠ dst latency
	// positive).
	lat []float64
}

// NewMesh builds a mesh. Width and height must be positive.
func NewMesh(cfg Config) (*Mesh, error) {
	if cfg.Width < 1 || cfg.Height < 1 {
		return nil, fmt.Errorf("noc: bad mesh %dx%d", cfg.Width, cfg.Height)
	}
	n := cfg.Width * cfg.Height
	return &Mesh{cfg: cfg, n: n, lat: make([]float64, n*n)}, nil
}

func (m *Mesh) xy(node int) (x, y int) { return node % m.cfg.Width, node / m.cfg.Width }

func (m *Mesh) node(x, y int) int { return y*m.cfg.Width + x }

// Hops is the Manhattan distance between two tiles.
func (m *Mesh) Hops(src, dst int) int {
	sx, sy := m.xy(src)
	dx, dy := m.xy(dst)
	return abs(sx-dx) + abs(sy-dy)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// pathIter walks the XY route for one (src, dst) pair hop by hop
// without allocating.
type pathIter struct {
	m            *Mesh
	x, y, dx, dy int
	started      bool

	node int
	dir  Direction
	turn bool // direction differs from the previous hop's
}

// pathFrom positions an iterator at src heading for dst.
func (m *Mesh) pathFrom(src, dst int) pathIter {
	sx, sy := m.xy(src)
	dx, dy := m.xy(dst)
	return pathIter{m: m, x: sx, y: sy, dx: dx, dy: dy}
}

// next advances to the following hop, reporting false past the last:
// X first, then Y.
func (it *pathIter) next() bool {
	var d Direction
	switch {
	case it.x != it.dx:
		d = East
		if it.dx < it.x {
			d = West
		}
	case it.y != it.dy:
		d = North
		if it.dy < it.y {
			d = South
		}
	default:
		return false
	}
	it.node = it.m.node(it.x, it.y)
	it.turn = it.started && d != it.dir
	it.dir = d
	it.started = true
	switch d {
	case East:
		it.x++
	case West:
		it.x--
	case North:
		it.y++
	default:
		it.y--
	}
	return true
}

// LatencyCycles is the zero-load latency of one packet from src to dst:
// per hop, the router pipeline (bypassed by EVC on straight hops) plus
// link traversal. It satisfies the cache.Network interface. Results are
// memoized per pair, so the simulator's per-access calls cost one array
// load.
func (m *Mesh) LatencyCycles(src, dst int) float64 {
	if src == dst {
		return 0
	}
	k := src*m.n + dst
	if m.lat[k] > 0 {
		return m.lat[k]
	}
	total := 0.0
	first := true
	for it := m.pathFrom(src, dst); it.next(); {
		router := m.cfg.RouterCycles
		if m.cfg.EVC && !first && !it.turn {
			router = m.cfg.EVCCycles
		}
		first = false
		total += router + m.cfg.LinkCycles
	}
	m.lat[k] = total
	return total
}
