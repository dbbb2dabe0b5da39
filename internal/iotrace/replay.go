package iotrace

import (
	"fmt"
	"math"

	"datalife/internal/blockstats"
)

// EventKind enumerates the trace event types a collector can replay. The set
// mirrors what the measurement shim observes — task lifecycle, open/close,
// and single or closed-form sequential accesses — so any trace source (the
// serve wire protocol, future ingest parsers) reduces to the same stream.
type EventKind uint8

const (
	// EvTaskStart marks the start of a task at time T.
	EvTaskStart EventKind = iota
	// EvTaskEnd marks the end of a task at time T.
	EvTaskEnd
	// EvOpen marks a task opening a file at time T.
	EvOpen
	// EvClose marks a task closing a file at time T.
	EvClose
	// EvRead is a single read of Len bytes at Off, at time T taking Dt.
	EvRead
	// EvWrite is a single write of Len bytes at Off, at time T taking Dt.
	EvWrite
	// EvReadChunks is a closed-form sequential read batch: Len bytes from
	// Off in Chunk-sized pieces, repeated Rep times, starting at T with Dt
	// per chunk (see blockstats.RecordSequentialChunks).
	EvReadChunks
	// EvWriteChunks is the write analogue of EvReadChunks.
	EvWriteChunks

	numEventKinds // sentinel for validation
)

var eventKindNames = [...]string{
	EvTaskStart:   "task-start",
	EvTaskEnd:     "task-end",
	EvOpen:        "open",
	EvClose:       "close",
	EvRead:        "read",
	EvWrite:       "write",
	EvReadChunks:  "read-chunks",
	EvWriteChunks: "write-chunks",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// TraceEvent is one replayable trace record. Which fields are meaningful
// depends on Kind; unused fields are zero.
type TraceEvent struct {
	Kind EventKind
	// Task names the acting task (all kinds).
	Task string
	// File names the accessed file (all kinds except task start/end).
	File string
	// FileSize is the file size hint used when the flow is first created.
	FileSize int64
	// Off and Len locate single accesses and chunk batches.
	Off, Len int64
	// Chunk and Rep shape EvReadChunks/EvWriteChunks batches.
	Chunk int64
	Rep   int
	// T is the event time; Dt the per-access (or per-chunk) duration.
	T, Dt float64
}

// Limits on a trace event's extents. maxEventExtent keeps every byte offset,
// and the histogram's block-size doubling above it, below 2^63; maxEventOps
// bounds the accesses one chunk batch charges, which the collector folds in
// time proportional to that count.
const (
	maxEventExtent = 1 << 62
	maxEventOps    = 1 << 24
)

// Validate checks an event from outside the process before it reaches a
// collector: a known kind naming its task (and, except for task start/end,
// its file), non-negative extents that stay within maxEventExtent, at most
// maxEventOps accesses per chunk batch, and finite times.
func (ev TraceEvent) Validate() error {
	if ev.Kind >= numEventKinds {
		return fmt.Errorf("iotrace: unknown trace event kind %d", uint8(ev.Kind))
	}
	if ev.Task == "" {
		return fmt.Errorf("iotrace: %s event without a task", ev.Kind)
	}
	if ev.File == "" && ev.Kind != EvTaskStart && ev.Kind != EvTaskEnd {
		return fmt.Errorf("iotrace: %s event without a file", ev.Kind)
	}
	if ev.FileSize < 0 || ev.Off < 0 || ev.Len < 0 || ev.Chunk < 0 {
		return fmt.Errorf("iotrace: %s event with a negative extent (size=%d off=%d len=%d chunk=%d)",
			ev.Kind, ev.FileSize, ev.Off, ev.Len, ev.Chunk)
	}
	if ev.FileSize > maxEventExtent || ev.Off > maxEventExtent-ev.Len {
		return fmt.Errorf("iotrace: %s event beyond the %d-byte extent limit", ev.Kind, int64(maxEventExtent))
	}
	if ev.Kind == EvReadChunks || ev.Kind == EvWriteChunks {
		chunks := int64(1)
		if ev.Chunk > 0 && ev.Len > ev.Chunk {
			chunks = (ev.Len + ev.Chunk - 1) / ev.Chunk
		}
		if rep := int64(max(ev.Rep, 1)); chunks > maxEventOps/rep {
			return fmt.Errorf("iotrace: %s event charges %d chunks × %d repeats, limit %d",
				ev.Kind, chunks, rep, maxEventOps)
		}
	}
	if math.IsInf(ev.T, 0) || math.IsNaN(ev.T) || math.IsInf(ev.Dt, 0) || math.IsNaN(ev.Dt) {
		return fmt.Errorf("iotrace: %s event with a non-finite time (t=%v dt=%v)", ev.Kind, ev.T, ev.Dt)
	}
	return nil
}

// ApplyEvent validates one trace event and replays it into the collector,
// updating task lifecycle or flow histograms exactly as the live measurement
// shim would. The flow-level calls follow the owner-mutates discipline:
// callers replaying into a shared collector must serialize events of the same
// (task, file) flow.
func (c *Collector) ApplyEvent(ev TraceEvent) error {
	if err := ev.Validate(); err != nil {
		return err
	}
	switch ev.Kind {
	case EvTaskStart:
		c.TaskStarted(ev.Task, ev.T)
		return nil
	case EvTaskEnd:
		c.TaskEnded(ev.Task, ev.T)
		return nil
	}
	fl := c.Flow(ev.Task, ev.File, ev.FileSize)
	switch ev.Kind {
	case EvOpen:
		fl.RecordOpen(ev.T)
	case EvClose:
		fl.RecordClose(ev.T)
	case EvRead:
		fl.RecordAccess(blockstats.Read, ev.Off, ev.Len, ev.T, ev.Dt)
	case EvWrite:
		fl.RecordAccess(blockstats.Write, ev.Off, ev.Len, ev.T, ev.Dt)
	case EvReadChunks:
		fl.RecordSequentialChunks(blockstats.Read, ev.Off, ev.Len, ev.Chunk, ev.Rep, ev.T, ev.Dt)
	case EvWriteChunks:
		fl.RecordSequentialChunks(blockstats.Write, ev.Off, ev.Len, ev.Chunk, ev.Rep, ev.T, ev.Dt)
	}
	return nil
}
