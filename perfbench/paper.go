package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"segdb"
)

// paper-study: Charles county loaded one segment at a time into all six
// index kinds at the paper's configuration (1 KB pages, a 16-page LRU
// pool, page format level 0), then the §6 query mix on every kind.

const (
	paperCounty = "Charles"
	// paperGrid squared is how many queries of each §6 type one round
	// runs on each kind.
	paperGrid = 32
	// paperWindowSide is the §6 range-query window: 0.01% of the world.
	paperWindowSide = 164
)

// paperKey holds one query type's accumulator names and per-kind
// failure labels, built once so the per-operation path builds no
// strings.
type paperKey struct {
	series, disk, ops string
	label             []string
}

var paperKeys = func() []paperKey {
	keys := make([]paperKey, len(paperQueries))
	for q, qn := range paperQueries {
		keys[q].series, keys[q].disk, keys[q].ops = "paper."+qn, "paper."+qn+".disk", "paper."+qn+".ops"
		for _, k := range paperKinds {
			keys[q].label = append(keys[q].label, k+" "+qn)
		}
	}
	return keys
}()

var paperKindValues = []segdb.Kind{segdb.RStarTree, segdb.ClassicRTree, segdb.RPlusTree, segdb.KDBTree, segdb.PMRQuadtree, segdb.UniformGrid}

type paperBench struct {
	segs []segdb.Segment
	or   *oracle
	n    int

	// Inputs, shared verbatim by every kind and every round.
	endSeg  []int32 // Point1/Point2: a segment and its first endpoint
	endPt   []segdb.Point
	one     []segdb.Point // one-stage (uniform) points
	two     []segdb.Point // two-stage (data-correlated) points
	polyOne []segdb.Point // one- and two-stage points of the polygon queries
	polyTwo []segdb.Point
	windows []segdb.Rect

	// Expected answers from the oracle.
	p1Want, p2Want       [][]int32
	n1Want, n2Want       []float64 // nearest squared distance
	poly1Want, poly2Want []float64
	rangeWant            [][]int32

	dbs      []*segdb.DB
	ids      []idmap
	buildAcc []uint64 // per kind: disk accesses of the build

	polyRef [2][][]segdb.SegmentID // this round's reference polygon edge multisets
	hits    []segdb.WindowHit
}

func newPaperBench(seed int64) (*paperBench, error) {
	m, err := segdb.GenerateCounty(paperCounty)
	if err != nil {
		return nil, err
	}
	b := &paperBench{segs: m.Segments, or: newOracle(), n: paperGrid * paperGrid}
	for _, s := range b.segs {
		b.or.add(s)
	}
	// Every sample is stratified: the world is cut into a grid of
	// paperGrid x paperGrid cells with one uniform point (or window) in
	// each, and segments and blocks are drawn one from each of n equal
	// runs of their lists. Each query keeps the paper's distribution,
	// while the set of queries covers the map evenly, so the rare costly
	// queries (points in the map's largest faces) come in the same
	// number for every seed.
	rng := rand.New(rand.NewSource(seed))
	blocks := occupiedBlocks(b.segs)
	cell := int32(segdb.WorldSize / paperGrid)
	for i := 0; i < b.n; i++ {
		j := int32(strided(rng, i, b.n, len(b.segs)))
		b.endSeg = append(b.endSeg, j)
		b.endPt = append(b.endPt, b.segs[j].P1)
		cx, cy := int32(i%paperGrid)*cell, int32(i/paperGrid)*cell
		oneDraw := func() segdb.Point {
			return segdb.Pt(cx+int32(rng.Intn(int(cell))), cy+int32(rng.Intn(int(cell))))
		}
		twoDraw := func() segdb.Point {
			blk := blocks[strided(rng, i, b.n, len(blocks))]
			return segdb.Pt(blk.Min.X+int32(rng.Intn(int(blk.Max.X-blk.Min.X)+1)),
				blk.Min.Y+int32(rng.Intn(int(blk.Max.Y-blk.Min.Y)+1)))
		}
		b.one = append(b.one, oneDraw())
		b.two = append(b.two, twoDraw())
		b.polyOne = append(b.polyOne, b.untied(b.one[i], oneDraw))
		b.polyTwo = append(b.polyTwo, b.untied(b.two[i], twoDraw))
		x := cx + int32(rng.Intn(int(cell-paperWindowSide)))
		y := cy + int32(rng.Intn(int(cell-paperWindowSide)))
		b.windows = append(b.windows, segdb.RectOf(x, y, x+paperWindowSide-1, y+paperWindowSide-1))
	}
	for i := 0; i < b.n; i++ {
		b.p1Want = append(b.p1Want, b.or.incident(b.endPt[i]))
		s := b.segs[b.endSeg[i]]
		b.p2Want = append(b.p2Want, b.or.incident(s.P2))
		for _, q := range []struct {
			pt   segdb.Point
			want *[]float64
		}{{b.one[i], &b.n1Want}, {b.two[i], &b.n2Want}, {b.polyOne[i], &b.poly1Want}, {b.polyTwo[i], &b.poly2Want}} {
			d, _ := b.or.minDist(q.pt)
			*q.want = append(*q.want, d)
		}
		b.rangeWant = append(b.rangeWant, b.or.window(b.windows[i]))
	}
	return b, nil
}

// untied returns p, or when several segments are equally near p, the
// first point draw yields that has a single nearest segment. Where the
// nearest point is a vertex several segments share, the program's
// enclosing-polygon answer depends on which of them the index reports,
// and some choices trace a face that does not hold the point (see
// README.md), so polygon queries are asked only at untied points.
func (b *paperBench) untied(p segdb.Point, draw func() segdb.Point) segdb.Point {
	for {
		if _, tied := b.or.minDist(p); !tied {
			return p
		}
		p = draw()
	}
}

// strided returns a uniform index into the ith of n equal runs of
// [0, total).
func strided(rng *rand.Rand, i, n, total int) int {
	lo, hi := i*total/n, (i+1)*total/n
	return lo + rng.Intn(hi-lo)
}

// occupiedBlocks decomposes the world into a bucket quadtree over the
// segments' midpoints (split while a block holds more than 8) and
// returns the non-empty leaf blocks. Two-stage points are drawn from
// these blocks, as §6 draws them from the PMR quadtree's occupied
// blocks: a block chosen uniformly by count, then a point in it.
func occupiedBlocks(segs []segdb.Segment) []segdb.Rect {
	pts := make([]segdb.Point, len(segs))
	for i, s := range segs {
		pts[i] = segdb.Pt(int32((int64(s.P1.X)+int64(s.P2.X))/2), int32((int64(s.P1.Y)+int64(s.P2.Y))/2))
	}
	var out []segdb.Rect
	var split func(x, y, size int32, pts []segdb.Point)
	split = func(x, y, size int32, pts []segdb.Point) {
		if len(pts) == 0 {
			return
		}
		if len(pts) <= 8 || size <= 1 {
			out = append(out, segdb.RectOf(x, y, x+size-1, y+size-1))
			return
		}
		h := size / 2
		var q [4][]segdb.Point
		for _, p := range pts {
			i := 0
			if p.X >= x+h {
				i |= 1
			}
			if p.Y >= y+h {
				i |= 2
			}
			q[i] = append(q[i], p)
		}
		split(x, y, h, q[0])
		split(x+h, y, h, q[1])
		split(x, y+h, h, q[2])
		split(x+h, y+h, h, q[3])
	}
	split(0, 0, segdb.WorldSize, pts)
	return out
}

func (b *paperBench) setupPerRound() bool { return false }

// setup builds the six indexes one segment at a time.
func (b *paperBench) setup() (time.Duration, error) {
	b.dbs, b.ids, b.buildAcc = nil, nil, nil
	m := &segdb.MapData{Segments: b.segs}
	start := time.Now()
	dbs := make([]*segdb.DB, len(paperKindValues))
	for i, k := range paperKindValues {
		db, err := segdb.Open(k, segdb.WithPageSize(1024), segdb.WithPoolPages(16), segdb.WithPageCompression(0))
		if err != nil {
			return 0, err
		}
		ids, err := db.Load(m)
		if err != nil {
			return 0, fmt.Errorf("load %s: %w", paperKinds[i], err)
		}
		// The pool defers writes; flushing them belongs to the build.
		if err := db.DropCaches(); err != nil {
			return 0, err
		}
		dbs[i] = db
		var im idmap
		for h, id := range ids {
			im.set(int32(h), id)
		}
		b.ids = append(b.ids, im)
	}
	d := time.Since(start)
	b.dbs = dbs
	for _, db := range dbs {
		b.buildAcc = append(b.buildAcc, db.Metrics().DiskAccesses)
	}
	return d, nil
}

// round runs the query mix on every kind from cold pools.
func (b *paperBench) round(p *phase) error {
	ctx := context.Background()
	for _, db := range b.dbs {
		if err := db.DropCaches(); err != nil {
			return err
		}
	}
	for side := range b.polyRef {
		b.polyRef[side] = make([][]segdb.SegmentID, b.n)
	}
	for k, db := range b.dbs {
		m0 := db.Metrics()
		d0h, d0m := db.DecodeCacheStats()
		t0k := len(p.lat)
		for q := range paperQueries {
			for i := 0; i < b.n; i++ {
				b.op(ctx, p, k, q, i)
			}
		}
		d := db.Metrics().Sub(m0)
		d1h, d1m := db.DecodeCacheStats()
		p.m = p.m.Add(d)
		p.acc[paperKinds[k]+".disk"] += float64(d.DiskAccesses)
		p.acc[paperKinds[k]+".us"] += p.lat[t0k:].sum()
		p.acc[paperKinds[k]+".ops"] += float64(len(p.lat) - t0k)
		p.acc["decode.hits"] += float64(d1h - d0h)
		p.acc["decode.misses"] += float64(d1m - d0m)
	}
	p.rounds++
	return nil
}

// op runs and checks query i of type q on kind k.
func (b *paperBench) op(ctx context.Context, p *phase, k, q, i int) {
	db, ids := b.dbs[k], &b.ids[k]
	qn := paperQueries[q]
	var (
		st   segdb.QueryStats
		err  error
		ok   bool
		name string
		n    int
		t1   time.Time
	)
	t0 := time.Now()
	switch qn {
	case "Point1", "Point2":
		b.hits = b.hits[:0]
		visit := func(id segdb.SegmentID, s segdb.Segment) bool {
			b.hits = append(b.hits, segdb.WindowHit{ID: id, Seg: s})
			return true
		}
		if qn == "Point1" {
			name = "segdb.incident"
			st, err = db.IncidentAtCtx(ctx, b.endPt[i], visit)
		} else {
			name = "segdb.other_endpoint"
			st, err = db.OtherEndpointCtx(ctx, ids.id[b.endSeg[i]], b.endPt[i], visit)
		}
		t1 = time.Now()
		want := b.p1Want[i]
		if qn == "Point2" {
			want = b.p2Want[i]
		}
		ok, n = checkHits(b.hits, want, ids, b.segs), len(b.hits)
	case "Nearest1", "Nearest2":
		pt, want := b.one[i], b.n1Want[i]
		if qn == "Nearest2" {
			pt, want = b.two[i], b.n2Want[i]
		}
		var r segdb.NearestResult
		r, st, err = db.NearestCtx(ctx, pt)
		t1, name = time.Now(), "segdb.nearest"
		ok, n = r.Found && checkNearest([]segdb.NearestResult{r}, []float64{want}, ids, b.segs, pt), 1
	case "Polygon1", "Polygon2":
		pt, minD, side := b.polyOne[i], b.poly1Want[i], 0
		if qn == "Polygon2" {
			pt, minD, side = b.polyTwo[i], b.poly2Want[i], 1
		}
		var poly segdb.Polygon
		poly, st, err = db.EnclosingPolygonCtx(ctx, pt)
		t1, name = time.Now(), "segdb.polygon"
		ok, n = checkPolygon(poly.IDs, ids, b.segs, pt, minD), len(poly.IDs)
		if err == nil && ok {
			// Every kind must return the edge multiset of the first kind
			// whose answer passed.
			if ms := sortedIDs(poly.IDs); b.polyRef[side][i] == nil {
				b.polyRef[side][i] = ms
			} else {
				ok = sameIDs(ms, b.polyRef[side][i])
			}
		}
	case "Range":
		b.hits, st, err = db.WindowAppendCtx(ctx, b.windows[i], b.hits[:0])
		t1, name = time.Now(), "segdb.window"
		ok, n = checkHits(b.hits, b.rangeWant[i], ids, b.segs), len(b.hits)
	}
	key := &paperKeys[q]
	p.timed(name, t0, t1)
	p.sample(key.series, t1.Sub(t0))
	p.acc[key.disk] += float64(st.DiskAccesses())
	p.acc[key.ops]++
	p.results += float64(n)
	p.op(err, ok, key.label[k], i)
}

// finish fills the count, size and memory metrics after the last round.
func (b *paperBench) finish(p *phase, e e2eValues) {
	var acc, bytes float64
	for i, db := range b.dbs {
		acc += float64(b.buildAcc[i])
		bytes += float64(db.IndexSizeBytes() + db.TableSizeBytes())
	}
	segs := float64(len(b.segs) * len(b.dbs))
	e["build_disk_accesses_per_seg"] = acc / segs
	e["bytes_per_segment"] = bytes / segs
	withDBs := liveHeapMB()
	b.dbs = nil
	e["heap_mb"] = withDBs - liveHeapMB()
}

// layers fills the per-layer metrics of a traced phase.
func (b *paperBench) layers(p *phase, v layerValues) {
	for _, n := range []string{"window", "nearest", "incident", "other_endpoint", "polygon"} {
		v["segdb."+n+"_us_p50"] = p.p50("segdb." + n)
	}
	for i, k := range paperKinds {
		v[k+".us_per_op"] = ratio(p.acc[k+".us"], p.acc[k+".ops"])
		v[k+".disk_accesses_per_op"] = ratio(p.acc[k+".disk"], p.acc[k+".ops"])
		v[k+".build_disk_accesses_per_seg"] = float64(b.buildAcc[i]) / float64(len(b.segs))
	}
	for _, q := range paperQueries {
		v["paper."+q+".us_p50"] = p.p50("paper." + q)
		v["paper."+q+".disk_accesses_per_op"] = ratio(p.acc["paper."+q+".disk"], p.acc["paper."+q+".ops"])
	}
	storeLayers(p, v)
	v["store.decode_cache_hit_ratio"] = ratio(p.acc["decode.hits"], p.acc["decode.hits"]+p.acc["decode.misses"])
}

// storeLayers fills the buffer-pool and segment-table metrics from the
// phase's program counter deltas.
func storeLayers(p *phase, v layerValues) {
	ops := float64(len(p.lat))
	reads := float64(p.m.PoolRequests - p.m.PoolHits)
	v["store.pool_hit_ratio"] = ratio(float64(p.m.PoolHits), float64(p.m.PoolRequests))
	v["store.disk_reads_per_op"] = ratio(reads, ops)
	v["store.disk_writes_per_op"] = ratio(float64(p.m.DiskAccesses)-reads, ops)
	v["seg.comps_per_result"] = ratio(float64(p.m.SegComps), p.results)
}

func (b *paperBench) sample() ([]segdb.Segment, []segdb.Rect) { return b.segs, b.windows }
