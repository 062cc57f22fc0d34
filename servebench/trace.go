package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"safetsa/internal/obs"
)

// span is one timed call in the traced run. Spans of one request share
// Req; Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced run takes the same code path.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) start(req, parent int64, name string) int64 {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	return id
}

// end closes span id.
func (r *recorder) end(id int64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// addTrace records a request trace the server kept: a span named
// "server.<name>" for its root and for every span under it, all with
// request ID req. Times are placed on the recorder's clock through the
// wall clock.
func (r *recorder) addTrace(req int64, tr obs.TraceSnapshot) {
	base := time.Unix(0, tr.StartUnixNanos).Sub(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	var add func(parent int64, name string, off, dur int64, children []obs.SpanSnapshot)
	add = func(parent int64, name string, off, dur int64, children []obs.SpanSnapshot) {
		id := int64(len(r.spans)) + 1
		start := base + time.Duration(off)
		r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: "server." + name,
			Start: start, End: start + time.Duration(dur)})
		children = nestExec(children)
		for _, c := range children {
			add(id, c.Name, c.OffsetNanos, c.DurationNanos, c.Children)
		}
	}
	add(0, tr.Name, 0, tr.DurationNanos, tr.Spans)
}

// nestExec moves an exec span under its wire_decode_stream sibling. A
// streaming run executes the guest while the stream is still decoding,
// so exec lies inside the decode span's interval; as its child, its
// time is not counted twice in self times.
func nestExec(spans []obs.SpanSnapshot) []obs.SpanSnapshot {
	d, e := -1, -1
	for i, s := range spans {
		switch s.Name {
		case "wire_decode_stream":
			d = i
		case "exec":
			e = i
		}
	}
	if d < 0 || e < 0 {
		return spans
	}
	out := make([]obs.SpanSnapshot, 0, len(spans)-1)
	for i, s := range spans {
		switch i {
		case d:
			s.Children = append(slices.Clone(s.Children), spans[e])
			out = append(out, s)
		case e:
		default:
			out = append(out, s)
		}
	}
	return out
}

// snapshot returns the closed spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered := time.Duration(0)
		cur := s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
