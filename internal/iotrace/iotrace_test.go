package iotrace

import (
	"io"
	"sync"
	"testing"

	"datalife/internal/blockstats"
	"datalife/internal/vfs"
)

type env struct {
	fs  *vfs.FS
	clk *ManualClock
	col *Collector
}

func newEnv(t *testing.T) *env {
	t.Helper()
	fs := vfs.New()
	if err := fs.AddTier(vfs.NewNFS("nfs")); err != nil {
		t.Fatal(err)
	}
	return &env{fs: fs, clk: &ManualClock{}, col: MustCollector(blockstats.DefaultConfig())}
}

func (e *env) tracer(task string) *Tracer {
	return NewTracer(task, e.fs, e.clk, TierCost{}, e.col, "nfs")
}

func TestOpenMissingNoCreate(t *testing.T) {
	e := newEnv(t)
	if _, err := e.tracer("t").Open("missing", RDONLY); err == nil {
		t.Fatal("open of missing file succeeded")
	}
}

func TestOpenNoMode(t *testing.T) {
	e := newEnv(t)
	if _, err := e.tracer("t").Open("x", CREATE); err == nil {
		t.Fatal("open with no access mode succeeded")
	}
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	e := newEnv(t)
	w := e.tracer("producer")
	h, err := w.Open("data.out", WRONLY|CREATE)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if n, err := h.Write(100); err != nil || n != 100 {
			t.Fatalf("Write = %d, %v", n, err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := e.fs.Stat("data.out")
	if err != nil || f.Size != 400 {
		t.Fatalf("file size = %v, %v", f, err)
	}

	r := e.tracer("consumer")
	rh, err := r.Open("data.out", RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for {
		n, err := rh.Read(150)
		total += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if total != 400 {
		t.Fatalf("read %d bytes, want 400", total)
	}
	if err := rh.Close(); err != nil {
		t.Fatal(err)
	}

	// Collector should hold exactly two flows: producer-write, consumer-read.
	if e.col.NumFlows() != 2 {
		t.Fatalf("NumFlows = %d", e.col.NumFlows())
	}
	flows := e.col.Flows()
	if flows[0].Task != "consumer" || flows[0].ReadBytes != 400 || flows[0].WriteBytes != 0 {
		t.Errorf("consumer flow wrong: %v", flows[0])
	}
	if flows[1].Task != "producer" || flows[1].WriteBytes != 400 || flows[1].ReadBytes != 0 {
		t.Errorf("producer flow wrong: %v", flows[1])
	}
}

func TestReadShortAtEOFThenEOF(t *testing.T) {
	e := newEnv(t)
	tr := e.tracer("t")
	h, _ := tr.Open("f", WRONLY|CREATE)
	if _, err := h.Write(50); err != nil {
		t.Fatal(err)
	}
	h.Close()

	rh, _ := tr.Open("f", RDONLY)
	n, err := rh.Read(100)
	if n != 50 || err != nil {
		t.Fatalf("short read = %d, %v", n, err)
	}
	n, err = rh.Read(10)
	if n != 0 || err != io.EOF {
		t.Fatalf("read past EOF = %d, %v (want 0, EOF)", n, err)
	}
}

func TestModeEnforcement(t *testing.T) {
	e := newEnv(t)
	tr := e.tracer("t")
	h, _ := tr.Open("f", WRONLY|CREATE)
	if _, err := h.Read(10); err != ErrBadMode {
		t.Fatalf("read on WRONLY = %v", err)
	}
	h.Close()
	rh, _ := tr.Open("f", RDONLY)
	if _, err := rh.Write(10); err != ErrBadMode {
		t.Fatalf("write on RDONLY = %v", err)
	}
}

func TestSeekWhence(t *testing.T) {
	e := newEnv(t)
	tr := e.tracer("t")
	h, _ := tr.Open("f", RDWR|CREATE)
	h.Write(100)
	if off, err := h.Seek(10, SeekSet); err != nil || off != 10 {
		t.Fatalf("SeekSet = %d, %v", off, err)
	}
	if off, err := h.Seek(5, SeekCur); err != nil || off != 15 {
		t.Fatalf("SeekCur = %d, %v", off, err)
	}
	if off, err := h.Seek(-20, SeekEnd); err != nil || off != 80 {
		t.Fatalf("SeekEnd = %d, %v", off, err)
	}
	if _, err := h.Seek(-1000, SeekSet); err == nil {
		t.Fatal("negative seek succeeded")
	}
	if _, err := h.Seek(0, 99); err == nil {
		t.Fatal("bad whence accepted")
	}
}

func TestPreadPwriteDoNotMoveOffset(t *testing.T) {
	e := newEnv(t)
	tr := e.tracer("t")
	h, _ := tr.Open("f", RDWR|CREATE)
	h.Write(100) // offset now 100
	if _, err := h.Pwrite(200, 50); err != nil {
		t.Fatal(err)
	}
	if h.Offset() != 100 {
		t.Fatalf("Pwrite moved offset to %d", h.Offset())
	}
	if n, err := h.Pread(0, 10); err != nil || n != 10 {
		t.Fatalf("Pread = %d, %v", n, err)
	}
	if h.Offset() != 100 {
		t.Fatalf("Pread moved offset to %d", h.Offset())
	}
	f, _ := e.fs.Stat("f")
	if f.Size != 250 {
		t.Fatalf("size after Pwrite = %d, want 250", f.Size)
	}
}

func TestAppendMode(t *testing.T) {
	e := newEnv(t)
	tr := e.tracer("t")
	h, _ := tr.Open("f", WRONLY|CREATE)
	h.Write(100)
	h.Close()
	a, _ := tr.Open("f", WRONLY|APPEND)
	a.Seek(0, SeekSet) // append must ignore this for writes
	if _, err := a.Write(10); err != nil {
		t.Fatal(err)
	}
	f, _ := e.fs.Stat("f")
	if f.Size != 110 {
		t.Fatalf("size after append = %d, want 110", f.Size)
	}
}

func TestTruncOnOpen(t *testing.T) {
	e := newEnv(t)
	tr := e.tracer("t")
	h, _ := tr.Open("f", WRONLY|CREATE)
	h.Write(100)
	h.Close()
	h2, err := tr.Open("f", WRONLY|TRUNC)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := e.fs.Stat("f")
	if f.Size != 0 {
		t.Fatalf("size after O_TRUNC open = %d", f.Size)
	}
	h2.Close()
}

func TestDupSharesOffset(t *testing.T) {
	e := newEnv(t)
	tr := e.tracer("t")
	h, _ := tr.Open("f", RDWR|CREATE)
	h.Write(100)
	h.Seek(0, SeekSet)
	d, err := h.Dup()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Read(30); err != nil {
		t.Fatal(err)
	}
	if d.Offset() != 30 {
		t.Fatalf("dup offset = %d, want 30 (shared description)", d.Offset())
	}
	// Closing the original keeps the description alive for the dup.
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := d.Read(10); err != nil || n != 10 {
		t.Fatalf("read via dup after close = %d, %v", n, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClosedHandleOps(t *testing.T) {
	e := newEnv(t)
	tr := e.tracer("t")
	h, _ := tr.Open("f", RDWR|CREATE)
	h.Close()
	if err := h.Close(); err != ErrClosed {
		t.Errorf("double close = %v", err)
	}
	if _, err := h.Read(1); err != ErrClosed {
		t.Errorf("read closed = %v", err)
	}
	if _, err := h.Write(1); err != ErrClosed {
		t.Errorf("write closed = %v", err)
	}
	if _, err := h.Seek(0, SeekSet); err != ErrClosed {
		t.Errorf("seek closed = %v", err)
	}
	if _, err := h.Dup(); err != ErrClosed {
		t.Errorf("dup closed = %v", err)
	}
}

func TestClockAdvancesWithCost(t *testing.T) {
	e := newEnv(t)
	tr := e.tracer("t")
	t0 := e.clk.Now()
	h, _ := tr.Open("f", WRONLY|CREATE)
	h.Write(1000000)
	h.Close()
	if e.clk.Now() <= t0 {
		t.Fatal("clock did not advance under TierCost")
	}
	// Blocking latency must be recorded in the flow.
	fl := e.col.Flow("t", "f", 0)
	if fl.WriteTime <= 0 {
		t.Fatal("write latency not recorded")
	}
}

func TestZeroCostNoAdvance(t *testing.T) {
	e := newEnv(t)
	tr := NewTracer("t", e.fs, e.clk, ZeroCost{}, e.col, "nfs")
	h, _ := tr.Open("f", WRONLY|CREATE)
	h.Write(1000000)
	h.Close()
	if e.clk.Now() != 0 {
		t.Fatalf("clock advanced to %v under ZeroCost", e.clk.Now())
	}
}

func TestTaskLifetimes(t *testing.T) {
	c := MustCollector(blockstats.DefaultConfig())
	c.TaskStarted("a", 5)
	c.TaskStarted("a", 3) // earlier start wins
	c.TaskEnded("a", 8)
	c.TaskEnded("a", 10) // later end wins
	ti := c.Task("a")
	if ti.Lifetime() != 7 {
		t.Fatalf("Lifetime = %v, want 7", ti.Lifetime())
	}
	if c.Task("missing") != nil {
		t.Fatal("missing task not nil")
	}
	if n := len(c.Tasks()); n != 1 {
		t.Fatalf("Tasks len = %d", n)
	}
	var none TaskInfo
	if none.Lifetime() != 0 {
		t.Fatal("unstarted task lifetime != 0")
	}
}

func TestConcurrentTasks(t *testing.T) {
	e := newEnv(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			task := string(rune('a' + id))
			tr := NewTracer(task, e.fs, &ManualClock{}, TierCost{}, e.col, "nfs")
			h, err := tr.Open("file-"+task, WRONLY|CREATE)
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 100; j++ {
				if _, err := h.Write(64); err != nil {
					t.Error(err)
					return
				}
			}
			h.Close()
		}(i)
	}
	wg.Wait()
	if e.col.NumFlows() != 8 {
		t.Fatalf("NumFlows = %d, want 8", e.col.NumFlows())
	}
	for _, fl := range e.col.Flows() {
		if fl.WriteBytes != 6400 {
			t.Errorf("flow %v: WriteBytes = %d", fl, fl.WriteBytes)
		}
	}
}

func TestMeasurementSpaceProportionalToTaskFilePairs(t *testing.T) {
	// §3: total measurement is proportional to task-file instances, not ops.
	e := newEnv(t)
	tr := e.tracer("t")
	h, _ := tr.Open("f", RDWR|CREATE)
	h.Write(1 << 20)
	for i := 0; i < 50000; i++ {
		h.Seek(int64(i*37)%(1<<20), SeekSet)
		h.Read(128)
	}
	h.Close()
	if e.col.NumFlows() != 1 {
		t.Fatalf("NumFlows = %d, want 1", e.col.NumFlows())
	}
	fl := e.col.Flows()[0]
	if fl.TrackedBlocks() > e.col.Config().BlocksPerFile {
		t.Fatalf("tracked blocks %d exceed bound", fl.TrackedBlocks())
	}
}

func TestCollectorMerge(t *testing.T) {
	// Two per-node collectors observing different tasks merge into the
	// global measurement.
	mk := func(task string, bytes int64) *Collector {
		fs := vfs.New()
		if err := fs.AddTier(vfs.NewNFS("nfs")); err != nil {
			t.Fatal(err)
		}
		col := MustCollector(blockstats.DefaultConfig())
		col.TaskStarted(task, 0)
		tr := NewTracer(task, fs, &ManualClock{}, TierCost{}, col, "nfs")
		h, err := tr.Open("shared.out", WRONLY|CREATE)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(bytes)
		h.Close()
		col.TaskEnded(task, 5)
		return col
	}
	a := mk("task-node0", 1000)
	b := mk("task-node1", 2000)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.NumFlows() != 2 {
		t.Fatalf("flows = %d", a.NumFlows())
	}
	if got := a.Flow("task-node1", "shared.out", 0).WriteBytes; got != 2000 {
		t.Fatalf("merged flow bytes = %d", got)
	}
	if len(a.Tasks()) != 2 {
		t.Fatalf("tasks = %d", len(a.Tasks()))
	}
}

func TestCollectorMergeSameFlow(t *testing.T) {
	// The same task-file pair observed by two collectors folds into one
	// histogram.
	a := MustCollector(blockstats.DefaultConfig())
	b := MustCollector(blockstats.DefaultConfig())
	a.RecordAccess("t", "f", 1000, blockstats.Read, 0, 500, 0, 0.1)
	b.RecordAccess("t", "f", 1000, blockstats.Read, 500, 500, 1, 0.1)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	fl := a.Flow("t", "f", 0)
	if fl.ReadBytes != 1000 || fl.ReadOps != 2 {
		t.Fatalf("merged: %+v", fl)
	}
}

func TestUnlinkAndTruncate(t *testing.T) {
	e := newEnv(t)
	tr := e.tracer("t")
	h, _ := tr.Open("f", WRONLY|CREATE)
	h.Write(1000)
	if err := h.Truncate(100); err != nil {
		t.Fatal(err)
	}
	f, _ := e.fs.Stat("f")
	if f.Size != 100 {
		t.Fatalf("size after truncate = %d", f.Size)
	}
	h.Close()
	if err := h.Truncate(0); err != ErrClosed {
		t.Fatalf("truncate on closed = %v", err)
	}
	ro, _ := tr.Open("f", RDONLY)
	if err := ro.Truncate(0); err != ErrBadMode {
		t.Fatalf("truncate on RDONLY = %v", err)
	}
	ro.Close()
	if err := tr.Unlink("f"); err != nil {
		t.Fatal(err)
	}
	if e.fs.Exists("f") {
		t.Fatal("file survives unlink")
	}
	if err := tr.Unlink("f"); err == nil {
		t.Fatal("double unlink succeeded")
	}
}
