// Package iotrace implements the DataLife collector (§3 of the paper).
//
// The paper intercepts POSIX and C I/O with an LD_PRELOAD shim and shadows
// every opaque I/O handle, emulating the effects of each operation so that
// reads and writes — which carry only an opaque descriptor — can be resolved
// to concrete (file, offset, length) accesses at run time. This package is
// the Go analogue: simulated tasks perform all I/O through Handle, which
// maintains exactly that shadow state (current offset, open mode, shared
// descriptions across dup), and forwards every resolved access to a
// Collector that maintains one constant-space histogram per task-file pair
// (see package blockstats).
package iotrace

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"datalife/internal/blockstats"
	"datalife/internal/vfs"
)

// Clock supplies virtual time to the collector. Implementations advance time
// as I/O costs are charged.
type Clock interface {
	// Now returns the current virtual time in seconds.
	Now() float64
	// Advance moves the clock forward by dt seconds.
	Advance(dt float64)
}

// ManualClock is a trivial Clock for standalone (non-simulator) monitoring.
type ManualClock struct {
	mu sync.Mutex
	t  float64
}

// Now implements Clock.
func (c *ManualClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance implements Clock.
func (c *ManualClock) Advance(dt float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += dt
}

// CostModel charges virtual time for I/O operations. The simulator installs a
// contention-aware model; standalone monitoring can use TierCost or ZeroCost.
type CostModel interface {
	// AccessCost returns the blocking time of moving n bytes to/from the
	// file's tier.
	AccessCost(kind blockstats.OpKind, tier *vfs.Tier, n int64) float64
	// MetaCost returns the cost of a metadata operation on the tier.
	MetaCost(tier *vfs.Tier) float64
}

// ZeroCost charges nothing; useful for pure flow-structure collection.
type ZeroCost struct{}

// AccessCost implements CostModel.
func (ZeroCost) AccessCost(blockstats.OpKind, *vfs.Tier, int64) float64 { return 0 }

// MetaCost implements CostModel.
func (ZeroCost) MetaCost(*vfs.Tier) float64 { return 0 }

// TierCost charges the tier's uncontended latency + bandwidth cost.
type TierCost struct{}

// AccessCost implements CostModel.
func (TierCost) AccessCost(kind blockstats.OpKind, tier *vfs.Tier, n int64) float64 {
	if tier == nil {
		return 0
	}
	bw := tier.ReadBW
	if kind == blockstats.Write {
		bw = tier.WriteBW
	}
	dt := tier.LatencyS
	if bw > 0 {
		dt += float64(n) / bw
	}
	return dt
}

// MetaCost implements CostModel.
func (TierCost) MetaCost(tier *vfs.Tier) float64 {
	if tier == nil {
		return 0
	}
	return tier.MetaOpS
}

// TaskInfo records a task's observed lifetime (§4.2 "task lifetime").
type TaskInfo struct {
	Name       string
	Start, End float64
	hasStart   bool
	hasEnd     bool
}

// Lifetime returns the task execution time in seconds, or 0 until both the
// start and the end have been observed.
func (ti *TaskInfo) Lifetime() float64 {
	if !ti.hasStart || !ti.hasEnd {
		return 0
	}
	return ti.End - ti.Start
}

// started folds in a start at t: the earliest start wins.
func (ti *TaskInfo) started(t float64) {
	if !ti.hasStart || t < ti.Start {
		ti.Start, ti.hasStart = t, true
	}
}

// ended folds in an end at t: the latest end wins.
func (ti *TaskInfo) ended(t float64) {
	if !ti.hasEnd || t > ti.End {
		ti.End, ti.hasEnd = t, true
	}
}

type flowKey struct{ task, file string }

// Collector accumulates one FlowStat per task-file pair plus task lifetimes.
// It is safe for concurrent use: one mutex guards map membership. Recording
// rarely takes it — the simulator engine is single-threaded, serve applies
// events under its session lock, and a Handle resolves its flow once at open
// and records through the cached *FlowStat (see description) — so striping
// the maps would buy nothing. Aggregation (Flows, Tasks, SaveJSON) happens
// only at read time.
type Collector struct {
	cfg blockstats.Config

	mu    sync.Mutex
	flows map[flowKey]*blockstats.FlowStat
	tasks map[string]*TaskInfo
}

// NewCollector creates a collector with the given histogram configuration.
// The configuration is validated once here so the record path stays
// infallible.
func NewCollector(cfg blockstats.Config) (*Collector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("iotrace: invalid histogram config: %w", err)
	}
	return &Collector{
		cfg:   cfg,
		flows: make(map[flowKey]*blockstats.FlowStat),
		tasks: make(map[string]*TaskInfo),
	}, nil
}

// MustCollector is NewCollector for configurations known valid at the call
// site (fixed literals, DefaultConfig); it panics on an invalid one.
func MustCollector(cfg blockstats.Config) *Collector {
	c, err := NewCollector(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the histogram configuration in use.
func (c *Collector) Config() blockstats.Config { return c.cfg }

// TaskStarted records the start of a task at time t. The first call wins.
func (c *Collector) TaskStarted(task string, t float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.taskLocked(task).started(t)
}

// TaskEnded records the end of a task at time t. The last call wins.
func (c *Collector) TaskEnded(task string, t float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.taskLocked(task).ended(t)
}

func (c *Collector) taskLocked(task string) *TaskInfo {
	ti := c.tasks[task]
	if ti == nil {
		ti = &TaskInfo{Name: task}
		c.tasks[task] = ti
	}
	return ti
}

// Task returns lifetime info for a task, or nil if never seen.
func (c *Collector) Task(task string) *TaskInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tasks[task]
}

// Tasks returns all observed tasks sorted by name.
func (c *Collector) Tasks() []*TaskInfo {
	c.mu.Lock()
	out := make([]*TaskInfo, 0, len(c.tasks))
	for _, ti := range c.tasks {
		out = append(out, ti)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Flow returns (creating on demand) the histogram for a task-file pair.
// fileSize seeds the block-size choice; pass 0 when unknown.
func (c *Collector) Flow(task, file string, fileSize int64) *blockstats.FlowStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := flowKey{task, file}
	fs := c.flows[k]
	if fs == nil {
		// The config was validated when the collector was built, so flow
		// creation on the record path cannot fail.
		fs = blockstats.FlowStatFor(task, file, fileSize, c.cfg)
		c.flows[k] = fs
	}
	return fs
}

// Flows returns all flow histograms sorted by (task, file).
func (c *Collector) Flows() []*blockstats.FlowStat {
	c.mu.Lock()
	out := make([]*blockstats.FlowStat, 0, len(c.flows))
	for _, fs := range c.flows {
		out = append(out, fs)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Task != out[j].Task {
			return out[i].Task < out[j].Task
		}
		return out[i].File < out[j].File
	})
	return out
}

// NumFlows returns the number of task-file pairs observed — the paper's
// measurement-size metric (total space is proportional to this count).
func (c *Collector) NumFlows() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.flows)
}

// Merge folds another collector into c — the distributed-measurement path:
// each node runs its own collector and the per-node task-file histograms
// merge into the global measurement when the workflow completes (§3). Both
// collectors must use the same sampling rule. other is snapshotted under its
// lock and released before c's lock is taken, so concurrent cross-merges
// cannot deadlock; other must not be recording concurrently.
func (c *Collector) Merge(other *Collector) error {
	other.mu.Lock()
	tasks := make([]TaskInfo, 0, len(other.tasks))
	for _, ti := range other.tasks {
		tasks = append(tasks, *ti)
	}
	flows := make([]*blockstats.FlowStat, 0, len(other.flows))
	for _, fl := range other.flows {
		flows = append(flows, fl)
	}
	other.mu.Unlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ti := range tasks {
		di := c.taskLocked(ti.Name)
		if ti.hasStart {
			di.started(ti.Start)
		}
		if ti.hasEnd {
			di.ended(ti.End)
		}
	}
	for _, fl := range flows {
		k := flowKey{fl.Task, fl.File}
		df := c.flows[k]
		if df == nil {
			df = blockstats.FlowStatFor(fl.Task, fl.File, fl.FileSize(), c.cfg)
			c.flows[k] = df
		}
		if err := df.Merge(fl); err != nil {
			return fmt.Errorf("iotrace: merging collectors: %w", err)
		}
	}
	return nil
}

// RecordAccess lets simulator code that bypasses Handle (it resolves offsets
// itself) feed an access directly into the histogram.
func (c *Collector) RecordAccess(task, file string, fileSize int64, kind blockstats.OpKind, off, n int64, t, dt float64) {
	c.Flow(task, file, fileSize).RecordAccess(kind, off, n, t, dt)
}

// Seek whence values, mirroring POSIX.
const (
	SeekSet = io.SeekStart
	SeekCur = io.SeekCurrent
	SeekEnd = io.SeekEnd
)

// OpenFlag is the subset of POSIX open flags the shim distinguishes.
type OpenFlag uint8

const (
	// RDONLY opens for reading.
	RDONLY OpenFlag = 1 << iota
	// WRONLY opens for writing.
	WRONLY
	// CREATE creates the file if absent.
	CREATE
	// APPEND positions every write at end of file.
	APPEND
	// TRUNC truncates on open.
	TRUNC
	// RDWR opens for reading and writing.
	RDWR = RDONLY | WRONLY
)

// ErrClosed is returned for operations on a closed handle.
var ErrClosed = errors.New("iotrace: handle is closed")

// ErrBadMode is returned when an operation conflicts with the open flags.
var ErrBadMode = errors.New("iotrace: operation not permitted by open mode")

// description is the shared open file description (what POSIX dup shares):
// offset and flags live here, so duplicated handles see each other's seeks.
//
// fl caches the task-file FlowStat resolved at open time, so the collector's
// map and lock are hit once per open instead of once per access. The cache is
// safe because a FlowStat is keyed by (task, file) and mutated only by its
// owning task (the tracer that opened it); the collector lock protects only
// map membership, never per-flow state.
type description struct {
	mu     sync.Mutex
	path   string
	flags  OpenFlag
	offset int64
	refs   int
	fl     *blockstats.FlowStat
}

// Tracer binds a task to the filesystem, clock, cost model and collector. It
// plays the role of the preloaded shim inside one task (process).
type Tracer struct {
	Task  string
	FS    *vfs.FS
	Clock Clock
	Cost  CostModel
	Col   *Collector

	// CreateTier is the tier used for files created by this task.
	CreateTier string
}

// NewTracer wires a task into the monitoring stack.
func NewTracer(task string, fs *vfs.FS, clock Clock, cost CostModel, col *Collector, createTier string) *Tracer {
	return &Tracer{Task: task, FS: fs, Clock: clock, Cost: cost, Col: col, CreateTier: createTier}
}

// Handle is a shadowed I/O handle (file descriptor / stream).
type Handle struct {
	tr     *Tracer
	desc   *description
	closed bool
}

// Unlink removes a file (charging a metadata operation), mirroring unlink(2).
func (tr *Tracer) Unlink(path string) error {
	f, err := tr.FS.Stat(path)
	if err != nil {
		return err
	}
	tr.Clock.Advance(tr.Cost.MetaCost(f.Tier))
	return tr.FS.Remove(path)
}

// Truncate resizes the file behind the handle, mirroring ftruncate(2).
func (h *Handle) Truncate(size int64) error {
	if h.closed {
		return ErrClosed
	}
	if h.desc.flags&WRONLY == 0 {
		return ErrBadMode
	}
	f, err := h.tr.FS.Stat(h.desc.path)
	if err != nil {
		return err
	}
	h.tr.Clock.Advance(h.tr.Cost.MetaCost(f.Tier))
	return h.tr.FS.Truncate(h.desc.path, size)
}

// Open opens path with the given flags, charging a metadata operation and
// recording the open in the task-file histogram.
func (tr *Tracer) Open(path string, flags OpenFlag) (*Handle, error) {
	if flags&(RDONLY|WRONLY) == 0 {
		return nil, fmt.Errorf("iotrace: open %q: no access mode", path)
	}
	f, err := tr.FS.Stat(path)
	if err != nil {
		if flags&CREATE == 0 {
			return nil, err
		}
		f, err = tr.FS.Create(path, tr.CreateTier)
		if err != nil {
			return nil, err
		}
	}
	if flags&TRUNC != 0 && flags&WRONLY != 0 {
		if err := tr.FS.Truncate(path, 0); err != nil {
			return nil, err
		}
	}
	dt := tr.Cost.MetaCost(f.Tier)
	t := tr.Clock.Now()
	tr.Clock.Advance(dt)

	fl := tr.Col.Flow(tr.Task, path, f.Size)
	fl.RecordOpen(t)

	return &Handle{
		tr:   tr,
		desc: &description{path: path, flags: flags, refs: 1, fl: fl},
	}, nil
}

// Close closes the handle; the underlying description closes with its last
// reference, charging a metadata op and recording the close time.
func (h *Handle) Close() error {
	if h.closed {
		return ErrClosed
	}
	h.closed = true
	h.desc.mu.Lock()
	h.desc.refs--
	last := h.desc.refs == 0
	path := h.desc.path
	h.desc.mu.Unlock()
	if !last {
		return nil
	}
	f, err := h.tr.FS.Stat(path)
	var dt float64
	if err == nil {
		dt = h.tr.Cost.MetaCost(f.Tier)
	}
	h.tr.Clock.Advance(dt)
	h.desc.fl.RecordClose(h.tr.Clock.Now())
	return nil
}

// Dup duplicates the handle, sharing the open file description (offset and
// flags) exactly as POSIX dup does.
func (h *Handle) Dup() (*Handle, error) {
	if h.closed {
		return nil, ErrClosed
	}
	h.desc.mu.Lock()
	h.desc.refs++
	h.desc.mu.Unlock()
	return &Handle{tr: h.tr, desc: h.desc}, nil
}

// Path returns the file path behind the handle.
func (h *Handle) Path() string { return h.desc.path }

// Offset returns the current shadowed file offset.
func (h *Handle) Offset() int64 {
	h.desc.mu.Lock()
	defer h.desc.mu.Unlock()
	return h.desc.offset
}

// Seek moves the shadowed offset, emulating lseek/fseek.
func (h *Handle) Seek(off int64, whence int) (int64, error) {
	if h.closed {
		return 0, ErrClosed
	}
	h.desc.mu.Lock()
	defer h.desc.mu.Unlock()
	var base int64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = h.desc.offset
	case SeekEnd:
		f, err := h.tr.FS.Stat(h.desc.path)
		if err != nil {
			return 0, err
		}
		base = f.Size
	default:
		return 0, fmt.Errorf("iotrace: bad whence %d", whence)
	}
	n := base + off
	if n < 0 {
		return 0, fmt.Errorf("iotrace: seek to negative offset %d", n)
	}
	h.desc.offset = n
	return n, nil
}

// Read reads up to n bytes from the current offset, advancing it. It returns
// the number of bytes "read" (short at EOF) and io.EOF at end of file.
func (h *Handle) Read(n int64) (int64, error) {
	if h.closed {
		return 0, ErrClosed
	}
	h.desc.mu.Lock()
	off := h.desc.offset
	h.desc.mu.Unlock()
	got, err := h.pread(off, n)
	if got > 0 {
		h.desc.mu.Lock()
		h.desc.offset = off + got
		h.desc.mu.Unlock()
	}
	return got, err
}

// Pread reads up to n bytes at offset off without moving the offset.
func (h *Handle) Pread(off, n int64) (int64, error) {
	if h.closed {
		return 0, ErrClosed
	}
	return h.pread(off, n)
}

func (h *Handle) pread(off, n int64) (int64, error) {
	if h.desc.flags&RDONLY == 0 {
		return 0, ErrBadMode
	}
	if n < 0 || off < 0 {
		return 0, fmt.Errorf("iotrace: negative read (off=%d n=%d)", off, n)
	}
	f, err := h.tr.FS.Stat(h.desc.path)
	if err != nil {
		return 0, err
	}
	if off >= f.Size {
		return 0, io.EOF
	}
	if off+n > f.Size {
		n = f.Size - off
	}
	if n == 0 {
		return 0, nil
	}
	t := h.tr.Clock.Now()
	dt := h.tr.Cost.AccessCost(blockstats.Read, f.Tier, n)
	h.tr.Clock.Advance(dt)
	h.desc.fl.RecordAccess(blockstats.Read, off, n, t, dt)
	return n, nil
}

// Write writes n bytes at the current offset (or EOF under APPEND),
// advancing the offset and growing the file as needed.
func (h *Handle) Write(n int64) (int64, error) {
	if h.closed {
		return 0, ErrClosed
	}
	h.desc.mu.Lock()
	off := h.desc.offset
	h.desc.mu.Unlock()
	if h.desc.flags&APPEND != 0 {
		f, err := h.tr.FS.Stat(h.desc.path)
		if err != nil {
			return 0, err
		}
		off = f.Size
	}
	got, err := h.pwrite(off, n)
	if got > 0 {
		h.desc.mu.Lock()
		h.desc.offset = off + got
		h.desc.mu.Unlock()
	}
	return got, err
}

// Pwrite writes n bytes at offset off without moving the offset.
func (h *Handle) Pwrite(off, n int64) (int64, error) {
	if h.closed {
		return 0, ErrClosed
	}
	return h.pwrite(off, n)
}

func (h *Handle) pwrite(off, n int64) (int64, error) {
	if h.desc.flags&WRONLY == 0 {
		return 0, ErrBadMode
	}
	if n < 0 || off < 0 {
		return 0, fmt.Errorf("iotrace: negative write (off=%d n=%d)", off, n)
	}
	if n == 0 {
		return 0, nil
	}
	f, err := h.tr.FS.Stat(h.desc.path)
	if err != nil {
		return 0, err
	}
	if err := h.tr.FS.Extend(h.desc.path, off+n); err != nil {
		return 0, err
	}
	t := h.tr.Clock.Now()
	dt := h.tr.Cost.AccessCost(blockstats.Write, f.Tier, n)
	h.tr.Clock.Advance(dt)
	h.desc.fl.RecordAccess(blockstats.Write, off, n, t, dt)
	return n, nil
}
