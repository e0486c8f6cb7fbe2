package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around the public function it called. Spans of one
// benchmark operation share req; parent indexes the span that caused
// this one (-1 for the operation's root).
type span struct {
	name       string
	req        uint64
	parent     int32
	start, end int64 // nanoseconds since the tracer started
}

// maxSpans bounds the in-memory span buffer (about 12 MiB); later spans
// are counted but not kept.
const maxSpans = 1 << 18

// tracer keeps spans in memory and writes them out when the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// call site.
type tracer struct {
	t0      time.Time
	spans   []span
	dropped int
	req     uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newReq starts a new operation and returns its id.
func (t *tracer) newReq() uint64 {
	if t == nil {
		return 0
	}
	t.req++
	return t.req
}

// record stores a finished span and returns its index (usable as a
// parent), or -1 when not kept.
func (t *tracer) record(name string, req uint64, parent int32, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, req: req, parent: parent,
		start: start.Sub(t.t0).Nanoseconds(), end: end.Sub(t.t0).Nanoseconds()})
	return int32(len(t.spans) - 1)
}

// writeJSONL writes every kept span, one JSON object per line, to
// .bench_build/spans/<file> under the working directory and returns the
// path.
func (t *tracer) writeJSONL(file string) (string, error) {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, "{\"i\":%d,\"name\":%q,\"req\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			i, s.name, s.req, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
