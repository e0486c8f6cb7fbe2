package main

import (
	"fmt"
	"sort"
	"time"

	"segdb"
	"segdb/internal/btree"
	"segdb/internal/kernel"
	"segdb/internal/rpage"
	"segdb/internal/store"
)

// The decode and compare microbenchmarks time the node-level functions
// every index traversal calls, on pages the benchmark writes from the
// workload's own segments: the R-tree node decode (rpage.DecodeSoA),
// the node compare kernel (kernel.IntersectMask) against the workload's
// own query windows, and the B+-tree leaf decode (btree.DecodePage) at
// page format levels 0 and 1. Each figure is the median of microReps
// timed passes over every page.

const (
	microPage  = 1024
	microPages = 64
	microReps  = 15
)

func microbench(segs []segdb.Segment, windows []segdb.Rect, v layerValues) error {
	pages, err := rtreePages(segs)
	if err != nil {
		return err
	}
	nodes := make([]*rpage.SoA, len(pages))
	v["rpage.decode_ns_per_page.l0"] = nsPer(len(pages), func() error {
		for i, pg := range pages {
			n, err := rpage.DecodeSoA(pg)
			if err != nil {
				return err
			}
			nodes[i] = n
		}
		return nil
	})
	if len(windows) > 64 {
		windows = windows[:64]
	}
	var sink uint64
	v["kernel.intersect_ns_per_node"] = nsPer(len(nodes)*len(windows), func() error {
		for _, w := range windows {
			for _, n := range nodes {
				sink += kernel.IntersectMask(n.Xmin, n.Ymin, n.Xmax, n.Ymax, w)
			}
		}
		return nil
	})
	_ = sink
	for _, level := range []int{0, 1} {
		leaves, err := leafPages(segs, level)
		if err != nil {
			return err
		}
		v[fmt.Sprintf("btree.decode_ns_per_leaf.l%d", level)] = nsPer(len(leaves), func() error {
			for _, pg := range leaves {
				if _, err := btree.DecodePage(pg, 0); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return nil
}

// nsPer returns the median over microReps passes of pass's duration
// divided by per (a pass that fails yields 0).
func nsPer(per int, pass func() error) float64 {
	var t []float64
	for r := 0; r < microReps; r++ {
		start := time.Now()
		if err := pass(); err != nil {
			return 0
		}
		t = append(t, float64(time.Since(start).Nanoseconds())/float64(per))
	}
	return median(t)
}

// rtreePages writes capacity-full R-tree leaf pages (format level 0)
// holding the MBRs of consecutive runs of the workload's segments.
func rtreePages(segs []segdb.Segment) ([][]byte, error) {
	capN := rpage.CapacityLevel(microPage, 0)
	var pages [][]byte
	for p := 0; p < microPages && (p+1)*capN <= len(segs); p++ {
		node := &rpage.Node{Leaf: true}
		for i, s := range segs[p*capN : (p+1)*capN] {
			node.Entries = append(node.Entries, rpage.Entry{Rect: s.Bounds(), Ptr: uint32(p*capN + i)})
		}
		pg := make([]byte, microPage)
		if err := rpage.WriteLevel(pg, node, 0); err != nil {
			return nil, err
		}
		pages = append(pages, pg)
	}
	return pages, nil
}

// leafPages bulk-loads a keys-only B+-tree at the given format level
// over Morton keys of the segments' midpoints (the linear-quadtree key
// order) and returns up to microPages of its leaf pages.
func leafPages(segs []segdb.Segment, level int) ([][]byte, error) {
	keys := make([]uint64, len(segs))
	for i, s := range segs {
		mx := uint32((int64(s.P1.X) + int64(s.P2.X)) / 2)
		my := uint32((int64(s.P1.Y) + int64(s.P2.Y)) / 2)
		keys[i] = interleave(mx, my)<<20 | uint64(i)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	disk := store.NewDisk(microPage)
	pool := store.NewPool(disk, 64)
	t, err := btree.BulkLoadWithOptions(pool, 0, level, len(keys), func(i int) (uint64, []byte) { return keys[i], nil })
	if err != nil {
		return nil, err
	}
	if err := t.Pool().Flush(); err != nil {
		return nil, err
	}
	var out [][]byte
	for id := 0; id < disk.PageCount() && len(out) < microPages; id++ {
		data, err := disk.RawPage(store.PageID(id))
		if err != nil {
			return nil, err
		}
		if info, ok := btree.InspectPage(data, 0); ok && info.Leaf {
			out = append(out, append([]byte(nil), data...))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no leaf pages at level %d", level)
	}
	return out, nil
}

// interleave returns the Morton code of (x, y): x bits at even
// positions, y bits at odd.
func interleave(x, y uint32) uint64 {
	var z uint64
	for b := 0; b < 16; b++ {
		z |= uint64(x>>b&1)<<(2*b) | uint64(y>>b&1)<<(2*b+1)
	}
	return z
}
