package iotrace

import (
	"math"
	"testing"
	"time"

	"datalife/internal/blockstats"
)

// TestApplyEventRejectsHostileEvents feeds events that once hung or corrupted
// the collector. Each must come back as an error, promptly, with the
// collector left empty; the deadline turns a hang into a failure.
func TestApplyEventRejectsHostileEvents(t *testing.T) {
	cases := []struct {
		name string
		ev   TraceEvent
	}{
		// The block-size doubling overflowed past 2^63 and looped forever.
		{"file size past the extent limit", TraceEvent{Kind: EvRead, Task: "t", File: "f",
			FileSize: math.MaxInt64, Len: 1, T: 1}},
		// Latency was summed once per chunk: 2^40 iterations.
		{"chunk batch past the op limit", TraceEvent{Kind: EvReadChunks, Task: "t", File: "f",
			Len: 1 << 40, Chunk: 1, Dt: 1e-300}},
		// Tracked negative block indices.
		{"negative offset", TraceEvent{Kind: EvRead, Task: "t", File: "f",
			Off: -(1 << 30), Len: 4096}},
		{"offset plus length past the extent limit", TraceEvent{Kind: EvWrite, Task: "t", File: "f",
			Off: 1 << 62, Len: 1}},
		{"negative chunk", TraceEvent{Kind: EvWriteChunks, Task: "t", File: "f", Len: 10, Chunk: -1}},
		{"repeats past the op limit", TraceEvent{Kind: EvReadChunks, Task: "t", File: "f",
			Len: 1 << 12, Chunk: 1, Rep: 1 << 13}},
		{"non-finite time", TraceEvent{Kind: EvRead, Task: "t", File: "f", Len: 1, T: math.Inf(1)}},
		{"NaN duration", TraceEvent{Kind: EvRead, Task: "t", File: "f", Len: 1, Dt: math.NaN()}},
		{"unknown kind", TraceEvent{Kind: numEventKinds, Task: "t", File: "f"}},
		{"missing task", TraceEvent{Kind: EvTaskStart}},
		{"missing file", TraceEvent{Kind: EvOpen, Task: "t"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			col := MustCollector(blockstats.DefaultConfig())
			done := make(chan error, 1)
			go func() { done <- col.ApplyEvent(tc.ev) }()
			select {
			case err := <-done:
				if err == nil {
					t.Fatalf("ApplyEvent(%+v) accepted a hostile event", tc.ev)
				}
			case <-time.After(time.Second):
				t.Fatalf("ApplyEvent(%+v) did not return", tc.ev)
			}
			if n := col.NumFlows(); n != 0 {
				t.Fatalf("rejected event created %d flows", n)
			}
		})
	}
}

// TestValidateAcceptsLimits pins the boundary: events at the extent and op
// limits are valid.
func TestValidateAcceptsLimits(t *testing.T) {
	for _, ev := range []TraceEvent{
		{Kind: EvTaskStart, Task: "t", T: -1},
		{Kind: EvRead, Task: "t", File: "f", FileSize: maxEventExtent, Off: maxEventExtent - 1, Len: 1},
		{Kind: EvReadChunks, Task: "t", File: "f", Len: maxEventOps, Chunk: 1},
		{Kind: EvWriteChunks, Task: "t", File: "f", Len: 1 << 12, Chunk: 1, Rep: 1 << 12},
		{Kind: EvWriteChunks, Task: "t", File: "f", Len: 1 << 40, Chunk: 0, Rep: maxEventOps},
	} {
		if err := ev.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", ev, err)
		}
	}
}
