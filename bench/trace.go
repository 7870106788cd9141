package main

// Spans recorded around the benchmark's calls into the program's layers. The
// program itself is not instrumented: every span starts and ends in the
// benchmark's own code, so a span covers a public call (exp.RunBatch,
// Task.Run, Engine.Run, an HTTP request, ...) and self time is what is left
// of a span once its child spans are taken out.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval. Times are nanoseconds since the tracer
// started; Parent is 0 for a root span, and spans of one operation share
// Trace.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil and pay one nil check per call.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a span that has started but not ended.
type open struct {
	tr *tracer
	sp span
}

// begin starts a span under parent (0 for a root) in trace.
func (t *tracer) begin(name, attr string, parent, trace uint64) open {
	if t == nil {
		return open{}
	}
	id := t.nextID.Add(1)
	return open{tr: t, sp: span{ID: id, Parent: parent, Trace: trace, Name: name, Attr: attr,
		Start: time.Since(t.t0).Nanoseconds()}}
}

// id is the span's identifier, for use as a child's parent; 0 when untraced.
func (o open) id() uint64 { return o.sp.ID }

// end records the span and returns its duration in milliseconds.
func (o open) end() float64 {
	if o.tr == nil {
		return 0
	}
	o.sp.End = time.Since(o.tr.t0).Nanoseconds()
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.sp)
	o.tr.mu.Unlock()
	return o.sp.dur()
}

// record stores a span whose interval was measured elsewhere (for example by
// the HTTP server's goroutine), converting wall times to tracer time.
func (t *tracer) record(name, attr string, parent, trace uint64, start, end time.Time) {
	if t == nil {
		return
	}
	sp := span{ID: t.nextID.Add(1), Parent: parent, Trace: trace, Name: name, Attr: attr,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes maps span ID to self time in milliseconds: the span's duration
// minus the part of its interval that its children's intervals cover.
func selfTimes(spans []span) map[uint64]float64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		self[s.ID] = float64(s.End-s.Start-covered) / 1e6
	}
	return self
}

// writeJSONL writes one span per line to dir/<workload>.jsonl.
func writeJSONL(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
