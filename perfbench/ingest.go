package main

import (
	"context"
	"math/rand"
	"time"

	"segdb"
	"segdb/internal/store"
)

// ingest-mixed: Anne Arundel county in shuffled order on a PMR quadtree
// with staged ingest, page format level 1 and a write-ahead log on an
// in-memory filesystem (no device flush). Half the county is
// bulk-loaded in setup; the timed stream mixes adds, deletes, windows
// and k-nearest queries, and the default compaction threshold fires
// during every round. After every round the log is recovered and must
// give back exactly the acknowledged state.

const (
	ingestCounty = "Anne Arundel"
	ingestOps    = 16000 // operations per round
	// ingestPoolPages holds the whole index and the whole segment table
	// (each has its own pool of this many 1 KB pages).
	ingestPoolPages = 4096
)

type ingestOpKind int

const (
	opAdd ingestOpKind = iota
	opDelete
	opIngestWindow
	opIngestNearest
)

type ingestOp struct {
	kind     ingestOpKind
	h        int32 // add, delete: the segment's handle
	rect     segdb.Rect
	pt       segdb.Point
	k        int
	winWant  []int32
	nearWant []float64
}

type ingestBench struct {
	segs      []segdb.Segment // the county, shuffled; handles index it
	base      int             // handles [0, base) are bulk-loaded in setup
	ops       []ingestOp
	finalLive []bool // live handles after the stream

	fs       *countingFS
	db       *segdb.DB
	ids      idmap
	buildAcc uint64
	hits     []segdb.WindowHit
}

func newIngestBench(seed int64) (*ingestBench, error) {
	m, err := segdb.GenerateCounty(ingestCounty)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	b := &ingestBench{segs: make([]segdb.Segment, len(m.Segments)), base: len(m.Segments) / 2}
	for i, j := range rng.Perm(len(m.Segments)) {
		b.segs[i] = m.Segments[j]
	}
	b.genOps(rng)
	return b, nil
}

// genOps generates the round's stream and its expected answers by
// replaying it on the oracle. Every block of 20 operations holds, in
// shuffled order, 5 adds (the unloaded half of the county, in shuffled
// order), 1 delete of a random live segment, 10 windows of side
// 128..1024 at uniform positions and 4 k-nearest queries (k in
// {1, 5, 10}) at uniform points: 25% adds, 5% deletes, 50% windows and
// 20% k-nearest, exactly.
func (b *ingestBench) genOps(rng *rand.Rand) {
	or := newOracle()
	live := make([]int32, 0, len(b.segs)) // live handles, for picking deletes
	for h, s := range b.segs {
		or.add(s)
		if h < b.base {
			live = append(live, int32(h))
		} else {
			or.remove(int32(h))
		}
	}
	block := []ingestOpKind{opAdd, opAdd, opAdd, opAdd, opAdd, opDelete}
	for len(block) < 16 {
		block = append(block, opIngestWindow)
	}
	for len(block) < 20 {
		block = append(block, opIngestNearest)
	}
	next := b.base
	for len(b.ops) < ingestOps {
		for _, j := range rng.Perm(len(block)) {
			switch block[j] {
			case opAdd:
				h := int32(next)
				next++
				or.live[h] = true
				live = append(live, h)
				b.ops = append(b.ops, ingestOp{kind: opAdd, h: h})
			case opDelete:
				i := rng.Intn(len(live))
				h := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				or.remove(h)
				b.ops = append(b.ops, ingestOp{kind: opDelete, h: h})
			case opIngestWindow:
				side := int32(128 + rng.Intn(897))
				x := int32(rng.Intn(segdb.WorldSize - int(side)))
				y := int32(rng.Intn(segdb.WorldSize - int(side)))
				r := segdb.RectOf(x, y, x+side-1, y+side-1)
				b.ops = append(b.ops, ingestOp{kind: opIngestWindow, rect: r, winWant: or.window(r)})
			case opIngestNearest:
				pt := segdb.Pt(int32(rng.Intn(segdb.WorldSize)), int32(rng.Intn(segdb.WorldSize)))
				k := []int{1, 5, 10}[rng.Intn(3)]
				b.ops = append(b.ops, ingestOp{kind: opIngestNearest, pt: pt, k: k, nearWant: or.nearestDists(pt, k)})
			}
		}
	}
	b.finalLive = append([]bool(nil), or.live...)
}

func (b *ingestBench) setupPerRound() bool { return true }

func (b *ingestBench) options() []segdb.Option {
	return []segdb.Option{segdb.WithStagedIngest(), segdb.WithPageCompression(1), segdb.WithPoolPages(ingestPoolPages)}
}

// setup opens a fresh logged database and bulk-loads half the county.
func (b *ingestBench) setup() (time.Duration, error) {
	b.db = nil
	b.fs = &countingFS{MemWALFS: segdb.NewMemWALFS()}
	start := time.Now()
	db, err := segdb.Open(segdb.PMRQuadtree, append(b.options(), segdb.WithWALFS(b.fs))...)
	if err != nil {
		return 0, err
	}
	ids, err := db.AddBatch(b.segs[:b.base])
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	b.db = db
	b.ids.reset()
	for h, id := range ids {
		b.ids.set(int32(h), id)
	}
	b.buildAcc = db.Metrics().DiskAccesses
	return d, nil
}

// counters is a snapshot of the program's cumulative counters and of
// their index-side share. A compaction rebuilds the index on a fresh
// disk, restarting the index-side counters; the accumulator below
// carries the old index's totals across.
type counters struct{ all, ix segdb.Metrics }

func (b *ingestBench) counters() counters {
	ix := b.db.Index()
	s := ix.DiskStats()
	return counters{all: b.db.Metrics(), ix: segdb.Metrics{
		DiskAccesses: s.Accesses(), NodeComps: ix.NodeComps(), PoolHits: s.Hits, PoolRequests: s.Requests(),
	}}
}

func (b *ingestBench) round(p *phase) error {
	ctx := context.Background()
	var acc segdb.Metrics
	last := b.counters()
	walBytes0 := b.fs.walBytes
	writes := 0
	for i := range b.ops {
		op := &b.ops[i]
		var (
			err error
			ok  bool
			n   int
		)
		switch op.kind {
		case opAdd, opDelete:
			pre := b.counters()
			acc = acc.Add(pre.all.Sub(last.all))
			name := "segdb.add"
			t0 := time.Now()
			if op.kind == opAdd {
				var id segdb.SegmentID
				id, err = b.db.Add(b.segs[op.h])
				if err == nil {
					ok = b.ids.handle(id) < 0
					b.ids.set(op.h, id)
				}
			} else {
				name = "segdb.delete"
				err = b.db.Delete(b.ids.id[op.h])
				ok = true
			}
			t1 := time.Now()
			p.timed(name, t0, t1)
			post := b.counters()
			d := post.all.Sub(pre.all)
			if post.all.Compactions != pre.all.Compactions {
				// The index-side counters restarted inside this write.
				d = d.Add(pre.ix)
				p.sample("segdb.compact", t1.Sub(t0))
			}
			acc = acc.Add(d)
			last = post
			writes++
		case opIngestWindow:
			var st segdb.QueryStats
			t0 := time.Now()
			b.hits, st, err = b.db.WindowAppendCtx(ctx, op.rect, b.hits[:0])
			p.timed("segdb.window", t0, time.Now())
			ok, n = checkHits(b.hits, op.winWant, &b.ids, b.segs), len(b.hits)
			p.acc["staged.hits"] += float64(st.StagedHits)
			p.acc["reads"]++
		case opIngestNearest:
			var (
				res []segdb.NearestResult
				st  segdb.QueryStats
			)
			t0 := time.Now()
			res, st, err = b.db.NearestKCtx(ctx, op.pt, op.k)
			p.timed("segdb.nearest", t0, time.Now())
			ok, n = checkNearest(res, op.nearWant, &b.ids, b.segs, op.pt), len(res)
			p.acc["staged.hits"] += float64(st.StagedHits)
			p.acc["reads"]++
		}
		p.results += float64(n)
		p.op(err, ok, "ingest op", i)
	}
	acc = acc.Add(b.counters().all.Sub(last.all))
	p.m = p.m.Add(acc)
	p.acc["compactions"] += float64(acc.Compactions)
	p.acc["wal.bytes"] += float64(b.fs.walBytes - walBytes0)
	p.acc["writes"] += float64(writes)
	ok, err := b.checkRecovery()
	p.op(err, ok, "recover after round", p.rounds)
	p.rounds++
	return nil
}

// checkRecovery recovers a database from the round's log and checks
// that it holds exactly the acknowledged live segments.
func (b *ingestBench) checkRecovery() (bool, error) {
	rdb, _, err := segdb.RecoverFS(b.fs, b.options()...)
	if err != nil {
		return false, err
	}
	live := 0
	for _, l := range b.finalLive {
		if l {
			live++
		}
	}
	seen := 0
	ok := true
	err = rdb.Window(segdb.World(), func(id segdb.SegmentID, s segdb.Segment) bool {
		h := b.ids.handle(id)
		if h < 0 || !b.finalLive[h] || !sameSeg(s, b.segs[h]) {
			ok = false
			return false
		}
		seen++
		return true
	})
	return ok && seen == live, err
}

func (b *ingestBench) finish(p *phase, e e2eValues) {
	e["build_disk_accesses_per_seg"] = float64(b.buildAcc) / float64(b.base)
	e["bytes_per_segment"] = float64(b.db.IndexSizeBytes()+b.db.TableSizeBytes()) / float64(b.db.Len())
	withDBs := liveHeapMB()
	b.db, b.fs = nil, nil
	e["heap_mb"] = withDBs - liveHeapMB()
}

func (b *ingestBench) layers(p *phase, v layerValues) {
	for _, n := range []string{"window", "nearest", "add", "delete"} {
		v["segdb."+n+"_us_p50"] = p.p50("segdb." + n)
	}
	v["segdb.compact_ms"] = p.p50("segdb.compact") / 1e3
	v["segdb.compactions"] = ratio(p.acc["compactions"], float64(p.rounds))
	v["segdb.staged_hits_per_op"] = ratio(p.acc["staged.hits"], p.acc["reads"])
	v["store.wal_bytes_per_write"] = ratio(p.acc["wal.bytes"], p.acc["writes"])
	storeLayers(p, v)
}

func (b *ingestBench) sample() ([]segdb.Segment, []segdb.Rect) {
	var w []segdb.Rect
	for i := range b.ops {
		if b.ops[i].kind == opIngestWindow {
			w = append(w, b.ops[i].rect)
		}
	}
	return b.segs, w
}

// countingFS is the in-memory log filesystem with a count of the bytes
// appended to the write-ahead log file (checkpoint files excluded).
type countingFS struct {
	*segdb.MemWALFS
	walBytes int64
}

// walFile is the log's file name inside the WAL filesystem.
const walFile = "wal.log"

func (c *countingFS) Create(name string) (store.WALFile, error) {
	f, err := c.MemWALFS.Create(name)
	if err != nil || name != walFile {
		return f, err
	}
	return &countingFile{WALFile: f, n: &c.walBytes}, nil
}

type countingFile struct {
	store.WALFile
	n *int64
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.WALFile.Write(p)
	*f.n += int64(n)
	return n, err
}
