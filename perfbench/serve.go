package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"segdb"
	"segdb/api"
	"segdb/internal/router"
)

// serve-zipf: Baltimore county behind a 4-shard R*-tree router in
// staged mode, as `lsdb serve` runs it, under api.NewServer's default
// configuration, driven through api.Client by zipfian pan/zoom
// sessions. The client's transport calls the server's handler in
// process: no socket, but the JSON encode and decode on both sides.

const (
	serveCounty  = "Baltimore"
	serveShards  = 4
	serveOps     = 4800 // operations per round: 400 sessions
	serveQuantum = api.DefaultQuantum
)

type serveOpKind int

const (
	opWindow serveOpKind = iota
	opNearest
	opIncident
)

type serveOp struct {
	kind           serveOpKind
	x1, y1, x2, y2 int32 // window
	pt             segdb.Point
	k              int
	nearWant       []float64
	incWant        []int32
}

type serveBench struct {
	segs    []segdb.Segment
	or      *oracle
	ids     idmap // global IDs are positions in segs
	ops     []serveOp
	winWant map[segdb.Rect][]int32

	r        *router.Router
	tr       *inproc
	client   *api.Client
	buildAcc uint64
	hits     []segdb.WindowHit
}

func newServeBench(seed int64) (*serveBench, error) {
	m, err := segdb.GenerateCounty(serveCounty)
	if err != nil {
		return nil, err
	}
	b := &serveBench{segs: m.Segments, or: newOracle(), winWant: make(map[segdb.Rect][]int32)}
	for i, s := range b.segs {
		b.ids.set(b.or.add(s), segdb.SegmentID(i))
	}
	b.ops = genServeOps(b.segs, seed, serveOps)
	for i := range b.ops {
		op := &b.ops[i]
		switch op.kind {
		case opNearest:
			op.nearWant = b.or.nearestDists(op.pt, op.k)
		case opIncident:
			op.incWant = b.or.incident(op.pt)
		}
	}
	return b, nil
}

// genServeOps generates map-browsing sessions, modelled on api.LoadGen.
// Each session starts near one of 16 hot spots, then pans and zooms for
// 12 operations. The hot spots are fixed points of the map (endpoints
// of segments spread evenly through the county's segment list), as a
// tile server's hot spots are where its users are, not a draw of the
// run. Their popularity is zipfian (s = 1.3): the round holds each
// spot's expected share of the sessions, in shuffled order, and each
// spot's sessions start at 512, 1024 and 2048 units wide in turn from a
// drawn offset. Every block of 20 operations holds, in shuffled order,
// 16 windows, 3 k-nearest queries (k in {1, 5, 10}) near the session's
// view and 1 incidence probe at a real segment endpoint: 80%, 15% and
// 5%, exactly.
func genServeOps(segs []segdb.Segment, seed int64, n int) []serveOp {
	const spots, sessionLen = 16, 12
	rng := rand.New(rand.NewSource(seed))
	hot := make([]segdb.Point, spots)
	for i := range hot {
		hot[i] = segs[(2*i+1)*len(segs)/(2*spots)].P1
	}
	// Sessions per spot: the zipf shares of n/sessionLen sessions,
	// rounded by largest remainder.
	sessions := n / sessionLen
	var w [spots]float64
	total := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -1.3)
		total += w[i]
	}
	quota := make([]int, spots)
	rem := make([]int, spots)
	left := sessions
	for i := range w {
		quota[i] = int(float64(sessions) * w[i] / total)
		left -= quota[i]
		rem[i] = i
	}
	sort.Slice(rem, func(a, b int) bool {
		fa := float64(sessions)*w[rem[a]]/total - float64(quota[rem[a]])
		fb := float64(sessions)*w[rem[b]]/total - float64(quota[rem[b]])
		return fa > fb
	})
	for i := 0; i < left; i++ {
		quota[rem[i]]++
	}
	type session struct {
		spot int
		side int32
	}
	var plan []session
	for spot, q := range quota {
		off := rng.Intn(3)
		for j := 0; j < q; j++ {
			plan = append(plan, session{spot, 512 << uint((off+j)%3)})
		}
	}
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })

	block := []serveOpKind{opNearest, opNearest, opNearest, opIncident}
	for len(block) < 20 {
		block = append(block, opWindow)
	}
	clamp := func(v int32) int32 { return maxI(0, minI(v, segdb.WorldSize-1)) }
	jitter := func(c, side int32) int32 { return clamp(c + int32(rng.Intn(int(side))) - side/2) }
	var (
		ops    []serveOp
		cx, cy int32
		side   int32
	)
	for len(ops) < n {
		for _, j := range rng.Perm(len(block)) {
			if len(ops)%sessionLen == 0 {
				s := plan[len(ops)/sessionLen]
				side = s.side
				cx, cy = jitter(hot[s.spot].X, side), jitter(hot[s.spot].Y, side)
			}
			switch block[j] {
			case opNearest:
				ops = append(ops, serveOp{kind: opNearest, pt: segdb.Pt(jitter(cx, side), jitter(cy, side)), k: []int{1, 5, 10}[rng.Intn(3)]})
			case opIncident:
				s := segs[rng.Intn(len(segs))]
				p := s.P1
				if rng.Intn(2) == 1 {
					p = s.P2
				}
				ops = append(ops, serveOp{kind: opIncident, pt: p})
			case opWindow:
				ops = append(ops, serveOp{kind: opWindow, x1: clamp(cx - side/2), y1: clamp(cy - side/2), x2: clamp(cx + side/2), y2: clamp(cy + side/2)})
				if rng.Intn(4) < 3 { // pan by half a window
					cx = clamp(cx + int32(rng.Intn(3)-1)*side/2)
					cy = clamp(cy + int32(rng.Intn(3)-1)*side/2)
				} else if rng.Intn(2) == 0 { // zoom in
					side = maxI(side/2, 64)
				} else { // zoom out
					side = minI(side*2, 4096)
				}
			}
		}
	}
	return ops
}

// inproc is an http.RoundTripper that serves each request by calling
// the handler in process and recording the response.
type inproc struct {
	h     http.Handler
	bytes int64
}

func (t *inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	t.bytes += int64(rec.Body.Len())
	return rec.Result(), nil
}

// timingHandler is the traced run's middleware around the server's
// handler: it records each request's handler time.
type timingHandler struct {
	next   http.Handler
	t0, t1 time.Time
}

func (h *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.t0 = time.Now()
	h.next.ServeHTTP(w, r)
	h.t1 = time.Now()
}

func (b *serveBench) setupPerRound() bool { return true }

// setup builds the router and the server afresh: every round starts
// with cold shard pools and an empty result cache.
func (b *serveBench) setup() (time.Duration, error) {
	b.r, b.client, b.tr = nil, nil, nil
	start := time.Now()
	r, err := router.Build(segdb.RStarTree, b.segs, serveShards, segdb.WithStagedIngest())
	if err != nil {
		return 0, err
	}
	srv, err := api.NewServer(api.Config{Router: r})
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	b.r = r
	b.tr = &inproc{h: srv.Handler()}
	b.client = api.NewClient("http://segdb.bench", &http.Client{Transport: b.tr})
	b.buildAcc = r.Metrics().DiskAccesses
	return d, nil
}

func (b *serveBench) round(p *phase) error {
	ctx := context.Background()
	var th *timingHandler
	if p.tr != nil {
		th = &timingHandler{next: b.tr.h}
		b.tr.h = th
		defer func() { b.tr.h = th.next }()
	}
	m0 := b.r.Metrics()
	bytes0 := b.tr.bytes
	var misses []int
	for i := range b.ops {
		hit, n, ok, err := b.op(ctx, p, th, i)
		if hit {
			p.acc["cache.hits"]++
		} else if err == nil {
			misses = append(misses, i)
			p.results += float64(n)
		}
		p.op(err, ok, "serve op", i)
	}
	p.m = p.m.Add(b.r.Metrics().Sub(m0))
	p.acc["response.bytes"] += float64(b.tr.bytes - bytes0)
	for i := 0; i < b.r.Shards(); i++ {
		h, m := b.r.Shard(i).DB().DecodeCacheStats()
		p.acc["decode.hits"] += float64(h)
		p.acc["decode.misses"] += float64(m)
	}
	if p.tr != nil {
		if err := b.replay(ctx, p, misses); err != nil {
			return err
		}
	}
	p.rounds++
	return nil
}

// op sends operation i and checks the response; it reports whether the
// result cache served it and how many results came back.
func (b *serveBench) op(ctx context.Context, p *phase, th *timingHandler, i int) (hit bool, n int, ok bool, err error) {
	op := &b.ops[i]
	var cache string
	t0 := time.Now()
	switch op.kind {
	case opWindow:
		var resp *api.WindowResponse
		resp, err = b.client.Window(ctx, op.x1, op.y1, op.x2, op.y2)
		t1 := time.Now()
		b.trace(p, th, "client.window", t0, t1)
		if err != nil {
			return false, 0, false, err
		}
		cache, n = resp.Cache, len(resp.Segments)
		ok = b.checkWindow(op, resp)
	case opNearest:
		var resp *api.NearestResponse
		resp, err = b.client.Nearest(ctx, op.pt.X, op.pt.Y, op.k)
		t1 := time.Now()
		b.trace(p, th, "client.nearest", t0, t1)
		if err != nil {
			return false, 0, false, err
		}
		got := make([]segdb.NearestResult, len(resp.Results))
		for j, r := range resp.Results {
			got[j] = segdb.NearestResult{ID: segdb.SegmentID(r.ID), Seg: segdb.Seg(r.X1, r.Y1, r.X2, r.Y2), DistSq: r.DistSq, Found: true}
		}
		cache, n = resp.Cache, len(got)
		ok = checkNearest(got, op.nearWant, &b.ids, b.segs, op.pt)
	case opIncident:
		var resp *api.IncidentResponse
		resp, err = b.client.Incident(ctx, op.pt.X, op.pt.Y)
		t1 := time.Now()
		b.trace(p, th, "client.incident", t0, t1)
		if err != nil {
			return false, 0, false, err
		}
		cache, n = resp.Cache, len(resp.Segments)
		ok = resp.Count == n && checkHits(b.wireHits(resp.Segments), op.incWant, &b.ids, b.segs)
	}
	return cache == "hit", n, ok, nil
}

// checkWindow checks a window answer against the window the server says
// it served (the request snapped outward to the cache quantum), which
// must cover the request.
func (b *serveBench) checkWindow(op *serveOp, resp *api.WindowResponse) bool {
	w := segdb.RectOf(resp.Window.X1, resp.Window.Y1, resp.Window.X2, resp.Window.Y2)
	if !w.ContainsRect(segdb.RectOf(op.x1, op.y1, op.x2, op.y2)) || resp.Count != len(resp.Segments) {
		return false
	}
	want, ok := b.winWant[w]
	if !ok {
		want = b.or.window(w)
		b.winWant[w] = want
	}
	return checkHits(b.wireHits(resp.Segments), want, &b.ids, b.segs)
}

func (b *serveBench) wireHits(segs []api.SegmentJSON) []segdb.WindowHit {
	b.hits = b.hits[:0]
	for _, s := range segs {
		b.hits = append(b.hits, segdb.WindowHit{ID: segdb.SegmentID(s.ID), Seg: segdb.Seg(s.X1, s.Y1, s.X2, s.Y2)})
	}
	return b.hits
}

// trace records the client call, and under it the handler span and the
// client-side remainder.
func (b *serveBench) trace(p *phase, th *timingHandler, name string, t0, t1 time.Time) {
	p.lat.add(t1.Sub(t0))
	if p.tr == nil {
		return
	}
	req := p.tr.newReq()
	parent := p.tr.record(name, req, -1, t0, t1)
	p.tr.record("api.handler", req, parent, th.t0, th.t1)
	p.sample("api.handler", th.t1.Sub(th.t0))
	p.sample("api.client", t1.Sub(t0)-th.t1.Sub(th.t0))
}

// replay runs the round's cache-miss queries again directly on the
// router and on each shard's DB the router fans to, timing each: the
// router's time less its slowest shard's own time is the fan-out and
// merge cost.
func (b *serveBench) replay(ctx context.Context, p *phase, misses []int) error {
	covers := make([]segdb.Rect, b.r.Shards())
	has := make([]bool, b.r.Shards())
	for i := range covers {
		covers[i], has[i] = b.r.Shard(i).Coverage()
	}
	visit := func(segdb.SegmentID, segdb.Segment) bool { return true }
	for _, i := range misses {
		op := &b.ops[i]
		req := p.tr.newReq()
		var (
			name   string
			rt0    = time.Now()
			err    error
			kth    float64
			window segdb.Rect
		)
		switch op.kind {
		case opWindow:
			name = "window"
			window = snap(op)
			b.hits, _, err = b.r.WindowAppendCtx(ctx, window, b.hits[:0])
		case opNearest:
			name = "nearest"
			var res []segdb.NearestResult
			res, _, err = b.r.NearestKCtx(ctx, op.pt, op.k)
			if len(res) > 0 {
				kth = res[len(res)-1].DistSq
			}
		case opIncident:
			name = "incident"
			_, err = b.r.IncidentAtCtx(ctx, op.pt, visit)
		}
		rt1 := time.Now()
		if err != nil {
			return err
		}
		parent := p.tr.record("router."+name, req, -1, rt0, rt1)
		var slowest time.Duration
		shards := 0
		for s := range covers {
			if !has[s] {
				continue
			}
			db := b.r.Shard(s).DB()
			st0 := time.Now()
			switch {
			case op.kind == opWindow && covers[s].Intersects(window):
				b.hits, _, err = db.WindowAppendCtx(ctx, window, b.hits[:0])
			case op.kind == opNearest && rectDistSq(covers[s], op.pt) <= kth:
				_, _, err = db.NearestKCtx(ctx, op.pt, op.k)
			case op.kind == opIncident && covers[s].ContainsPoint(op.pt):
				_, err = db.IncidentAtCtx(ctx, op.pt, visit)
			default:
				continue
			}
			st1 := time.Now()
			if err != nil {
				return err
			}
			shards++
			p.tr.record("segdb."+name, req, parent, st0, st1)
			p.sample("segdb."+name, st1.Sub(st0))
			slowest = max(slowest, st1.Sub(st0))
		}
		p.sample("router.query", rt1.Sub(rt0))
		p.sample("router.merge", rt1.Sub(rt0)-slowest)
		p.acc["router.shards"] += float64(shards)
		p.acc["router.ops"]++
	}
	return nil
}

// snap is the window the server serves for a request: clamped to the
// world and snapped outward to the quantum.
func snap(op *serveOp) segdb.Rect {
	q := int32(serveQuantum)
	return segdb.RectOf(op.x1/q*q, op.y1/q*q, minI(op.x2/q*q+q-1, segdb.WorldSize-1), minI(op.y2/q*q+q-1, segdb.WorldSize-1))
}

// rectDistSq is the squared distance from p to the closed rectangle r.
func rectDistSq(r segdb.Rect, p segdb.Point) float64 {
	dx := float64(maxI(0, maxI(r.Min.X-p.X, p.X-r.Max.X)))
	dy := float64(maxI(0, maxI(r.Min.Y-p.Y, p.Y-r.Max.Y)))
	return dx*dx + dy*dy
}

func (b *serveBench) finish(p *phase, e e2eValues) {
	var bytes float64
	for i := 0; i < b.r.Shards(); i++ {
		db := b.r.Shard(i).DB()
		bytes += float64(db.IndexSizeBytes() + db.TableSizeBytes())
	}
	e["build_disk_accesses_per_seg"] = float64(b.buildAcc) / float64(b.r.Len())
	e["bytes_per_segment"] = bytes / float64(b.r.Len())
	withDBs := liveHeapMB()
	b.r, b.client, b.tr = nil, nil, nil
	e["heap_mb"] = withDBs - liveHeapMB()
}

func (b *serveBench) layers(p *phase, v layerValues) {
	ops := float64(len(p.lat))
	v["api.handler_us_p50"] = p.p50("api.handler")
	v["api.client_us_p50"] = p.p50("api.client")
	v["api.response_bytes_per_op"] = p.acc["response.bytes"] / ops
	v["api.cache_hit_ratio"] = p.acc["cache.hits"] / ops
	v["router.query_us_p50"] = p.p50("router.query")
	v["router.merge_us_p50"] = p.p50("router.merge")
	v["router.shards_per_op"] = ratio(p.acc["router.shards"], p.acc["router.ops"])
	for _, n := range []string{"window", "nearest", "incident"} {
		v["segdb."+n+"_us_p50"] = p.p50("segdb." + n)
	}
	storeLayers(p, v)
	v["store.decode_cache_hit_ratio"] = ratio(p.acc["decode.hits"], p.acc["decode.hits"]+p.acc["decode.misses"])
}

func (b *serveBench) sample() ([]segdb.Segment, []segdb.Rect) {
	var w []segdb.Rect
	for i := range b.ops {
		if b.ops[i].kind == opWindow {
			w = append(w, snap(&b.ops[i]))
		}
	}
	return b.segs, w
}

// serveReference runs the serve-zipf stream three ways for a third of
// seconds each and prints one JSON line per transport: through the
// in-process transport the benchmark uses, over real loopback TCP, and
// replayed on the router alone (no HTTP, no JSON, no result cache). The
// differences price the transport and the serving tier above the
// router. Every answer is checked as in the benchmark.
func serveReference(seed int64, seconds float64) error {
	b, err := newServeBench(seed)
	if err != nil {
		return err
	}
	for _, mode := range []string{"in-process", "loopback-tcp", "router-only"} {
		p := newPhase(nil)
		start := time.Now()
		for p.rounds == 0 || time.Since(start).Seconds() < seconds/3 {
			if _, err := b.setup(); err != nil {
				return err
			}
			switch mode {
			case "in-process":
				err = b.round(p)
			case "loopback-tcp":
				err = b.roundTCP(p)
			case "router-only":
				err = b.roundRouter(p)
			}
			if err != nil {
				return err
			}
		}
		if p.failed != 0 {
			return fmt.Errorf("%s: %d of %d operations failed; first: %s", mode, p.failed, p.attempted, p.firstFailure)
		}
		fmt.Printf("{\"transport\":%q,\"ops\":%d,\"ops_per_s\":%.1f,\"p50_us\":%.1f,\"p99_us\":%.1f}\n",
			mode, len(p.lat), float64(len(p.lat))/(p.lat.sum()/1e6), p.lat.quantile(0.5), p.lat.quantile(0.99))
	}
	return nil
}

// roundTCP runs one round with the server listening on a loopback port
// and the client on the default HTTP transport.
func (b *serveBench) roundTCP(p *phase) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: b.tr.h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(l) }()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	inproc := b.client
	b.client = api.NewClient("http://"+l.Addr().String(), hc)
	err = b.round(p)
	b.client = inproc
	hc.CloseIdleConnections()
	hs.Close()
	<-done // http.ErrServerClosed
	return err
}

// roundRouter replays one round's stream directly on the router: the
// windows on the snapped window the server would serve.
func (b *serveBench) roundRouter(p *phase) error {
	ctx := context.Background()
	for i := range b.ops {
		op := &b.ops[i]
		var (
			err error
			ok  bool
		)
		t0 := time.Now()
		switch op.kind {
		case opWindow:
			w := snap(op)
			b.hits, _, err = b.r.WindowAppendCtx(ctx, w, b.hits[:0])
			p.lat.add(time.Since(t0))
			want, seen := b.winWant[w]
			if !seen {
				want = b.or.window(w)
				b.winWant[w] = want
			}
			ok = checkHits(b.hits, want, &b.ids, b.segs)
		case opNearest:
			var res []segdb.NearestResult
			res, _, err = b.r.NearestKCtx(ctx, op.pt, op.k)
			p.lat.add(time.Since(t0))
			ok = checkNearest(res, op.nearWant, &b.ids, b.segs, op.pt)
		case opIncident:
			b.hits = b.hits[:0]
			_, err = b.r.IncidentAtCtx(ctx, op.pt, func(id segdb.SegmentID, s segdb.Segment) bool {
				b.hits = append(b.hits, segdb.WindowHit{ID: id, Seg: s})
				return true
			})
			p.lat.add(time.Since(t0))
			ok = checkHits(b.hits, op.incWant, &b.ids, b.segs)
		}
		p.op(err, ok, "router op", i)
	}
	p.rounds++
	return nil
}
