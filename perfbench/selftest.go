package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"segdb"
	"segdb/api"
	"segdb/internal/router"
)

// selfTest checks the checker: real answers from the program must
// pass, and each planted wrong answer must count as a failure — one
// window hit dropped, one k-nearest distance changed, one polygon edge
// removed, and one served window response missing a segment of its
// snapped window.
func selfTest() error {
	m, err := segdb.GenerateCounty(paperCounty)
	if err != nil {
		return err
	}
	segs := m.Segments
	or := newOracle()
	var ids idmap
	for i, s := range segs {
		ids.set(or.add(s), segdb.SegmentID(i))
	}
	db, err := segdb.Open(segdb.RStarTree)
	if err != nil {
		return err
	}
	if _, err := db.AddBatch(segs); err != nil {
		return err
	}
	ctx := context.Background()
	var t tally
	expect := func(what string, real, planted bool) {
		// The real answer must pass and the planted one must fail.
		t.op(nil, real, what+" (real answer)", 0)
		t.op(nil, !planted, what+" (planted answer)", 0)
	}

	// Window: drop one hit.
	c := segs[len(segs)/2].P1
	w := segdb.RectOf(c.X-300, c.Y-300, c.X+300, c.Y+300)
	hits, _, err := db.WindowAppendCtx(ctx, w, nil)
	if err != nil {
		return err
	}
	want := or.window(w)
	real := checkHits(append([]segdb.WindowHit(nil), hits...), want, &ids, segs)
	expect("window hit dropped", real, checkHits(append([]segdb.WindowHit(nil), hits[1:]...), want, &ids, segs))

	// k-nearest: change one distance.
	res, _, err := db.NearestKCtx(ctx, c, 5)
	if err != nil {
		return err
	}
	dists := or.nearestDists(c, 5)
	real = checkNearest(res, dists, &ids, segs, c)
	bad := append([]segdb.NearestResult(nil), res...)
	bad[2].DistSq += 1
	expect("k-nearest distance changed", real, checkNearest(bad, dists, &ids, segs, c))

	// Polygon: remove one edge from the boundary of a face with at
	// least four edges.
	var poly segdb.Polygon
	var pt segdb.Point
	for i := 0; i < len(segs) && len(poly.IDs) < 4; i += 997 {
		s := segs[i]
		pt = segdb.Pt((s.P1.X+s.P2.X)/2+1, (s.P1.Y+s.P2.Y)/2+1)
		if poly, _, err = db.EnclosingPolygonCtx(ctx, pt); err != nil {
			return err
		}
	}
	if len(poly.IDs) < 4 {
		return errors.New("selftest: found no face with four edges")
	}
	minD, _ := or.minDist(pt)
	real = checkPolygon(poly.IDs, &ids, segs, pt, minD)
	cut := len(poly.IDs) / 2
	short := append(append([]segdb.SegmentID(nil), poly.IDs[:cut]...), poly.IDs[cut+1:]...)
	expect("polygon edge removed", real, checkPolygon(short, &ids, segs, pt, minD))

	// Served window: drop one segment of the snapped window, count
	// adjusted to match.
	r, err := router.Build(segdb.RStarTree, segs, 2)
	if err != nil {
		return err
	}
	srv, err := api.NewServer(api.Config{Router: r})
	if err != nil {
		return err
	}
	sb := &serveBench{segs: segs, or: or, ids: ids, winWant: make(map[segdb.Rect][]int32)}
	client := api.NewClient("http://segdb.bench", &http.Client{Transport: &inproc{h: srv.Handler()}})
	op := &serveOp{kind: opWindow, x1: c.X - 100, y1: c.Y - 100, x2: c.X + 100, y2: c.Y + 100}
	resp, err := client.Window(ctx, op.x1, op.y1, op.x2, op.y2)
	if err != nil {
		return err
	}
	real = sb.checkWindow(op, resp)
	short2 := *resp
	short2.Segments = resp.Segments[1:]
	short2.Count--
	expect("served window missing a segment", real, sb.checkWindow(op, &short2))

	if t.failed != 0 {
		return fmt.Errorf("selftest: %d of %d checks misjudged; first: %s", t.failed, t.attempted, t.firstFailure)
	}
	return nil
}
