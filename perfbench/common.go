package main

import (
	"sort"
	"time"

	"segdb"
)

// phase accumulates one measured phase of a run: per-operation times,
// the attempted/failed tally, and the program's counter deltas.
type phase struct {
	tr  *tracer // nil when untraced
	lat samples // every timed operation, microseconds
	tally
	m       segdb.Metrics // program counter deltas over the phase
	results float64       // results the program returned
	rounds  int
	rates   []float64 // per round: operations per second of operation time
	// acc holds workload-specific per-layer accumulators.
	acc map[string]float64
	// lats holds duration series by layer or span name.
	lats map[string]*samples
}

// p50 returns the median of the named series in microseconds (0 when
// it is empty).
func (p *phase) p50(name string) float64 { return p.series(name).quantile(0.5) }

func newPhase(tr *tracer) *phase {
	return &phase{tr: tr, acc: make(map[string]float64), lats: make(map[string]*samples)}
}

// timed records one operation's duration under the overall latency and
// the named series, and as a span when tracing.
func (p *phase) timed(name string, t0, t1 time.Time) {
	d := t1.Sub(t0)
	p.lat.add(d)
	p.sample(name, d)
	p.tr.record(name, p.tr.newReq(), -1, t0, t1)
}

func (p *phase) sample(name string, d time.Duration) {
	s, ok := p.lats[name]
	if !ok {
		s = new(samples)
		p.lats[name] = s
	}
	s.add(d)
}

func (p *phase) series(name string) samples {
	if s, ok := p.lats[name]; ok {
		return *s
	}
	return nil
}

// idmap maps oracle handles to the IDs the program assigned, and back.
type idmap struct {
	id  []segdb.SegmentID // handle -> ID
	h   []int32           // ID -> handle, -1 for none
	buf []segdb.SegmentID // scratch for checkHits
}

func (m *idmap) set(h int32, id segdb.SegmentID) {
	for int(h) >= len(m.id) {
		m.id = append(m.id, 0)
	}
	m.id[h] = id
	for int(id) >= len(m.h) {
		m.h = append(m.h, -1)
	}
	m.h[id] = h
}

func (m *idmap) reset() {
	m.id = m.id[:0]
	m.h = m.h[:0]
}

// handle returns the handle of id, or -1.
func (m *idmap) handle(id segdb.SegmentID) int32 {
	if int(id) >= len(m.h) {
		return -1
	}
	return m.h[id]
}

// sameSeg compares two undirected segments.
func sameSeg(a, b segdb.Segment) bool {
	return (a.P1 == b.P1 && a.P2 == b.P2) || (a.P1 == b.P2 && a.P2 == b.P1)
}

// checkHits reports whether the program's hits are exactly the expected
// handles: the same IDs, each carrying the geometry the benchmark
// stored under it. got is sorted in place.
func checkHits(got []segdb.WindowHit, want []int32, ids *idmap, segs []segdb.Segment) bool {
	if len(got) != len(want) {
		return false
	}
	sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
	w := ids.buf[:0]
	for _, h := range want {
		w = append(w, ids.id[h])
	}
	ids.buf = w
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	for i := range got {
		if got[i].ID != w[i] {
			return false
		}
		h := ids.handle(got[i].ID)
		if h < 0 || !sameSeg(got[i].Seg, segs[h]) {
			return false
		}
	}
	return true
}

// checkNearest reports whether the program's ranked neighbours have the
// expected distances, each result carrying its stored geometry at the
// distance it claims.
func checkNearest(got []segdb.NearestResult, want []float64, ids *idmap, segs []segdb.Segment, p segdb.Point) bool {
	if len(got) != len(want) {
		return false
	}
	for i, r := range got {
		h := ids.handle(r.ID)
		if h < 0 || !sameSeg(r.Seg, segs[h]) || !sameDist(r.DistSq, pointSegDistSq(p, segs[h])) || !sameDist(r.DistSq, want[i]) {
			return false
		}
	}
	return true
}

// checkPolygon reports whether a polygon answer is a closed walk
// through shared endpoints whose nearest edge lies at the brute-force
// nearest distance from p, and whose face (the one on the walk's left,
// the side the traversal keeps its face on) holds p.
func checkPolygon(poly []segdb.SegmentID, ids *idmap, segs []segdb.Segment, p segdb.Point, minDist float64) bool {
	edges := make([]segdb.Segment, len(poly))
	near := false
	for i, id := range poly {
		h := ids.handle(id)
		if h < 0 {
			return false
		}
		edges[i] = segs[h]
		if sameDist(pointSegDistSq(p, segs[h]), minDist) {
			near = true
		}
	}
	v := walkVertices(edges)
	return near && v != nil && (minDist == 0 || faceHolds(v, p))
}

// sortedIDs returns a sorted copy of ids (an edge multiset).
func sortedIDs(ids []segdb.SegmentID) []segdb.SegmentID {
	c := append([]segdb.SegmentID(nil), ids...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

func sameIDs(a, b []segdb.SegmentID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
