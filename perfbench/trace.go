package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one op share Op; Parent indexes the span
// that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Allocs is the runtime.MemStats.Mallocs delta across the span, when
	// the tracer counts allocations.
	Allocs uint64 `json:"allocs"`
}

// tracer keeps spans in memory for the whole run; they are written out once,
// after the timed phase. A nil *tracer records nothing, so untraced runs pay
// one nil check per layer call.
type tracer struct {
	t0     time.Time
	spans  []span
	allocs bool
	ms     runtime.MemStats
}

func newTracer(countAllocs bool) *tracer {
	return &tracer{t0: now(), allocs: countAllocs}
}

// begin opens a span and returns its handle (-1 on a nil tracer). The
// allocation counter is read before the clock so its cost stays outside.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, Op: op, Parent: parent}
	if t.allocs {
		runtime.ReadMemStats(&t.ms)
		s.Allocs = t.ms.Mallocs
	}
	s.Start = since(t.t0).Nanoseconds()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.End = since(t.t0).Nanoseconds()
	if t.allocs {
		runtime.ReadMemStats(&t.ms)
		s.Allocs = t.ms.Mallocs - s.Allocs
	}
}

// selfNS returns each span's self time: its duration minus the time its
// direct children cover.
func (t *tracer) selfNS() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// layer is a per-op aggregate of one span name: self time in milliseconds
// and allocations, summed over the op's spans of that name.
type layer struct {
	ms     []float64
	allocs []float64
}

// layers groups self time and allocations by span name and op, keeping ops
// in first-seen order.
func (t *tracer) layers() map[string]*layer {
	self := t.selfNS()
	out := make(map[string]*layer)
	type key struct {
		name string
		op   int
	}
	slot := make(map[key]int)
	for i, s := range t.spans {
		l := out[s.Name]
		if l == nil {
			l = &layer{}
			out[s.Name] = l
		}
		k := key{s.Name, s.Op}
		j, ok := slot[k]
		if !ok {
			j = len(l.ms)
			slot[k] = j
			l.ms = append(l.ms, 0)
			l.allocs = append(l.allocs, 0)
		}
		l.ms[j] += float64(self[i]) / 1e6
		l.allocs[j] += float64(s.Allocs)
	}
	return out
}

// write dumps every span as a JSON line, followed by one summary line with
// each layer's median per-op self time.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	ls := t.layers()
	names := make([]string, 0, len(ls))
	for n := range ls {
		names = append(names, n)
	}
	sort.Strings(names)
	summary := make([]map[string]any, 0, len(names))
	for _, n := range names {
		summary = append(summary, map[string]any{
			"layer": n, "ops": len(ls[n].ms), "self_ms_p50": median(ls[n].ms),
		})
	}
	if err := enc.Encode(map[string]any{"summary": summary}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
