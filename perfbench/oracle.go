package main

import (
	"math"
	"sort"

	"segdb"
)

// oracle is the benchmark's own copy of the live segments, bucketed in a
// uniform grid, answering window, k-nearest and incidence queries by
// exhaustive scans of the candidate buckets. It shares no code with the
// program under test: the geometry predicates below are written here
// from first principles, so an answer the program gets wrong cannot be
// reproduced by the check that judges it.
//
// Segments are addressed by handle, an index into segs. A workload maps
// handles to the IDs the program assigned.
type oracle struct {
	cell    int32 // bucket side in world units
	side    int   // buckets per world side
	buckets [][]int32
	segs    []segdb.Segment
	live    []bool
	ends    map[segdb.Point][]int32

	stamp []uint32 // per-handle query stamp, dedups multi-bucket segments
	epoch uint32
}

const oracleCell = 256

func newOracle() *oracle {
	side := int(segdb.WorldSize / oracleCell)
	return &oracle{
		cell:    oracleCell,
		side:    side,
		buckets: make([][]int32, side*side),
		ends:    make(map[segdb.Point][]int32),
	}
}

// add registers s under the next handle and returns the handle.
func (o *oracle) add(s segdb.Segment) int32 {
	h := int32(len(o.segs))
	o.segs = append(o.segs, s)
	o.live = append(o.live, true)
	o.stamp = append(o.stamp, 0)
	x0, y0, x1, y1 := o.span(minI(s.P1.X, s.P2.X), minI(s.P1.Y, s.P2.Y), maxI(s.P1.X, s.P2.X), maxI(s.P1.Y, s.P2.Y))
	for by := y0; by <= y1; by++ {
		for bx := x0; bx <= x1; bx++ {
			b := by*o.side + bx
			o.buckets[b] = append(o.buckets[b], h)
		}
	}
	o.ends[s.P1] = append(o.ends[s.P1], h)
	if s.P2 != s.P1 {
		o.ends[s.P2] = append(o.ends[s.P2], h)
	}
	return h
}

// remove marks handle h dead; scans skip it.
func (o *oracle) remove(h int32) { o.live[h] = false }

// span returns the bucket range covering the given world rectangle,
// clamped to the grid.
func (o *oracle) span(x0, y0, x1, y1 int32) (int, int, int, int) {
	c := func(v int32) int {
		b := int(v / o.cell)
		if v < 0 {
			b = 0
		}
		if b >= o.side {
			b = o.side - 1
		}
		return b
	}
	return c(x0), c(y0), c(x1), c(y1)
}

func (o *oracle) nextStamp() uint32 {
	o.epoch++
	if o.epoch == 0 {
		for i := range o.stamp {
			o.stamp[i] = 0
		}
		o.epoch = 1
	}
	return o.epoch
}

// window returns the live handles whose segment intersects the closed
// rectangle r, ascending.
func (o *oracle) window(r segdb.Rect) []int32 {
	st := o.nextStamp()
	var out []int32
	x0, y0, x1, y1 := o.span(r.Min.X, r.Min.Y, r.Max.X, r.Max.Y)
	for by := y0; by <= y1; by++ {
		for bx := x0; bx <= x1; bx++ {
			for _, h := range o.buckets[by*o.side+bx] {
				if o.stamp[h] == st || !o.live[h] {
					continue
				}
				o.stamp[h] = st
				if segHitsRect(o.segs[h], r) {
					out = append(out, h)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// incident returns the live handles having an endpoint exactly at p,
// ascending.
func (o *oracle) incident(p segdb.Point) []int32 {
	var out []int32
	for _, h := range o.ends[p] {
		if o.live[h] {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// nearestDists returns the squared distances of the k live segments
// nearest to p, ascending. Rings of buckets are scanned outward from
// p's bucket; every point of a bucket r rings away lies at least
// (r-1)*cell from p, so the scan stops once the kth distance is within
// that bound.
func (o *oracle) nearestDists(p segdb.Point, k int) []float64 {
	st := o.nextStamp()
	best := make([]float64, 0, k+1)
	px, py, _, _ := o.span(p.X, p.Y, p.X, p.Y)
	for ring := 0; ring < o.side; ring++ {
		for by := py - ring; by <= py+ring; by++ {
			if by < 0 || by >= o.side {
				continue
			}
			for bx := px - ring; bx <= px+ring; bx++ {
				if bx < 0 || bx >= o.side {
					continue
				}
				if by != py-ring && by != py+ring && bx != px-ring && bx != px+ring {
					continue // interior: scanned in an earlier ring
				}
				for _, h := range o.buckets[by*o.side+bx] {
					if o.stamp[h] == st || !o.live[h] {
						continue
					}
					o.stamp[h] = st
					best = pushBest(best, pointSegDistSq(p, o.segs[h]), k)
				}
			}
		}
		if len(best) == k {
			lb := float64(ring) * float64(o.cell)
			if best[k-1] <= lb*lb {
				break
			}
		}
	}
	return best
}

// minDist returns the squared distance from p to the nearest live
// segment, and whether another segment lies at the same distance.
func (o *oracle) minDist(p segdb.Point) (float64, bool) {
	d := o.nearestDists(p, 2)
	switch len(d) {
	case 0:
		return math.Inf(1), false
	case 1:
		return d[0], false
	}
	return d[0], sameDist(d[0], d[1])
}

// pushBest inserts d into the ascending list best, keeping at most k.
func pushBest(best []float64, d float64, k int) []float64 {
	if len(best) == k && d >= best[k-1] {
		return best
	}
	i := sort.SearchFloat64s(best, d)
	if len(best) < k {
		best = append(best, 0)
	}
	copy(best[i+1:], best[i:len(best)-1])
	best[i] = d
	return best
}

// segHitsRect reports whether segment s meets the closed rectangle r:
// their bounding boxes overlap and the rectangle's corners do not all
// lie strictly on one side of the segment's supporting line (the
// separating-axis test; exact in int64).
func segHitsRect(s segdb.Segment, r segdb.Rect) bool {
	if maxI(s.P1.X, s.P2.X) < r.Min.X || minI(s.P1.X, s.P2.X) > r.Max.X ||
		maxI(s.P1.Y, s.P2.Y) < r.Min.Y || minI(s.P1.Y, s.P2.Y) > r.Max.Y {
		return false
	}
	dx, dy := int64(s.P2.X)-int64(s.P1.X), int64(s.P2.Y)-int64(s.P1.Y)
	side := func(x, y int32) int {
		c := dx*(int64(y)-int64(s.P1.Y)) - dy*(int64(x)-int64(s.P1.X))
		switch {
		case c > 0:
			return 1
		case c < 0:
			return -1
		}
		return 0
	}
	a := side(r.Min.X, r.Min.Y)
	return !(a != 0 && side(r.Max.X, r.Min.Y) == a && side(r.Min.X, r.Max.Y) == a && side(r.Max.X, r.Max.Y) == a)
}

// pointSegDistSq is the squared Euclidean distance from p to segment s.
func pointSegDistSq(p segdb.Point, s segdb.Segment) float64 {
	ax, ay := float64(s.P1.X), float64(s.P1.Y)
	dx, dy := float64(s.P2.X)-ax, float64(s.P2.Y)-ay
	px, py := float64(p.X), float64(p.Y)
	t := 0.0
	if l := dx*dx + dy*dy; l > 0 {
		t = ((px-ax)*dx + (py-ay)*dy) / l
		t = math.Max(0, math.Min(1, t))
	}
	ex, ey := ax+t*dx-px, ay+t*dy-py
	return ex*ex + ey*ey
}

// sameDist compares two squared distances computed by different
// formulas: equal up to floating-point rounding.
func sameDist(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6+1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// walkVertices returns the vertices of a closed walk through the edges,
// the first repeated at the end, or nil when the edges do not form one:
// each edge must share an endpoint with the one before, continuing from
// the vertex the walk arrived at, and the last edge must return to the
// first edge's starting vertex. Either orientation of the first edge
// may start the walk; an edge repeated back-to-back is a dead end
// walked both ways.
func walkVertices(edges []segdb.Segment) []segdb.Point {
	if len(edges) == 0 {
		return nil
	}
	for _, start := range [2][2]segdb.Point{{edges[0].P1, edges[0].P2}, {edges[0].P2, edges[0].P1}} {
		v := []segdb.Point{start[0], start[1]}
		for _, e := range edges[1:] {
			at := v[len(v)-1]
			switch at {
			case e.P1:
				v = append(v, e.P2)
			case e.P2:
				v = append(v, e.P1)
			default:
				v = nil
			}
			if v == nil {
				break
			}
		}
		if v != nil && v[len(v)-1] == v[0] {
			return v
		}
	}
	return nil
}

// faceHolds reports whether p lies in the face on the left of the
// closed walk v. A walk that turns counter-clockwise (positive signed
// area) has its face inside, where the walk winds once around p; one
// that turns clockwise, or encloses no area, has its face outside,
// where it winds around p zero times. Exact in int64.
func faceHolds(v []segdb.Point, p segdb.Point) bool {
	var area2 int64
	wn := 0
	for i := 0; i+1 < len(v); i++ {
		a, b := v[i], v[i+1]
		area2 += int64(a.X)*int64(b.Y) - int64(b.X)*int64(a.Y)
		left := (int64(b.X)-int64(a.X))*(int64(p.Y)-int64(a.Y)) - (int64(p.X)-int64(a.X))*(int64(b.Y)-int64(a.Y))
		if a.Y <= p.Y {
			if b.Y > p.Y && left > 0 {
				wn++
			}
		} else if b.Y <= p.Y && left < 0 {
			wn--
		}
	}
	if area2 > 0 {
		return wn == 1
	}
	return wn == 0
}

func minI(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func maxI(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
