package iotrace

import (
	"io"
	"testing"

	"datalife/internal/blockstats"
)

func TestFOpenModes(t *testing.T) {
	e := newEnv(t)
	tr := e.tracer("t")
	if _, err := tr.FOpen("missing", "r"); err == nil {
		t.Error("fopen r on missing file succeeded")
	}
	if _, err := tr.FOpen("x", "q"); err == nil {
		t.Error("bad mode accepted")
	}
	w, err := tr.FOpen("x", "w")
	if err != nil {
		t.Fatal(err)
	}
	w.Write(10)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := tr.FOpen("x", "r")
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
}

func TestStreamBufferingCoalescesReads(t *testing.T) {
	// 1000 tiny application reads must become few buffer-sized descriptor
	// reads — the granularity change real stdio produces.
	e := newEnv(t)
	tr := e.tracer("writer")
	h, _ := tr.Open("big", WRONLY|CREATE)
	h.Write(100_000)
	h.Close()

	rd := e.tracer("reader")
	s, err := rd.FOpen("big", "r")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetBuffer(10_000); err != nil {
		t.Fatal(err)
	}
	var total int64
	for {
		n, err := s.Read(100) // fgets-sized application reads
		total += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if total != 100_000 {
		t.Fatalf("read %d bytes", total)
	}
	fl := e.col.Flow("reader", "big", 0)
	// 100k bytes / 10k buffer = 10 descriptor reads, not 1000.
	if fl.ReadOps != 10 {
		t.Fatalf("descriptor reads = %d, want 10 (buffered)", fl.ReadOps)
	}
	if fl.ReadBytes != 100_000 {
		t.Fatalf("descriptor bytes = %d", fl.ReadBytes)
	}
}

func TestStreamBufferingCoalescesWrites(t *testing.T) {
	e := newEnv(t)
	tr := e.tracer("w")
	s, err := tr.FOpen("out", "w")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetBuffer(1000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ { // 100 x 50B = 5000B
		if _, err := s.Write(50); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil { // flush on close
		t.Fatal(err)
	}
	fl := e.col.Flow("w", "out", 0)
	if fl.WriteBytes != 5000 {
		t.Fatalf("bytes = %d", fl.WriteBytes)
	}
	if fl.WriteOps != 5 {
		t.Fatalf("descriptor writes = %d, want 5 (5000/1000)", fl.WriteOps)
	}
	f, err := e.fs.Stat("out")
	if err != nil || f.Size != 5000 {
		t.Fatalf("file = %v %v", f, err)
	}
}

func TestStreamFlushPartial(t *testing.T) {
	e := newEnv(t)
	tr := e.tracer("w")
	s, _ := tr.FOpen("out", "w")
	s.SetBuffer(1000)
	s.Write(300)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	fl := e.col.Flow("w", "out", 0)
	if fl.WriteOps != 1 || fl.WriteBytes != 300 {
		t.Fatalf("flush: ops=%d bytes=%d", fl.WriteOps, fl.WriteBytes)
	}
	// Flushing twice is a no-op.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if fl.WriteOps != 1 {
		t.Fatal("idempotent flush wrote again")
	}
	s.Close()
}

func TestStreamSeekAndTell(t *testing.T) {
	e := newEnv(t)
	tr := e.tracer("t")
	h, _ := tr.Open("f", WRONLY|CREATE)
	h.Write(10_000)
	h.Close()

	s, _ := tr.FOpen("f", "r")
	s.SetBuffer(1000)
	s.Read(500)
	if s.Tell() != 500 {
		t.Fatalf("Tell = %d", s.Tell())
	}
	if _, err := s.Seek(9000, SeekSet); err != nil {
		t.Fatal(err)
	}
	n, err := s.Read(2000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 { // clamped at EOF
		t.Fatalf("read after seek = %d", n)
	}
	if s.Tell() != 10_000 {
		t.Fatalf("Tell = %d", s.Tell())
	}
	s.Close()
}

func TestStreamReadWriteInterleaved(t *testing.T) {
	e := newEnv(t)
	tr := e.tracer("t")
	s, err := tr.FOpen("f", "w+")
	if err != nil {
		t.Fatal(err)
	}
	s.SetBuffer(100)
	s.Write(250)
	// Read after write must flush first (ANSI C requires an intervening
	// flush/seek; the shim flushes implicitly).
	if _, err := s.Seek(0, SeekSet); err != nil {
		t.Fatal(err)
	}
	n, err := s.Read(250)
	if err != nil || n != 250 {
		t.Fatalf("read back = %d, %v", n, err)
	}
	s.Close()
	f, _ := e.fs.Stat("f")
	if f.Size != 250 {
		t.Fatalf("size = %d", f.Size)
	}
}

func TestStreamClosedOps(t *testing.T) {
	e := newEnv(t)
	tr := e.tracer("t")
	s, _ := tr.FOpen("f", "w")
	s.Close()
	if err := s.Close(); err != ErrClosed {
		t.Error("double close")
	}
	if _, err := s.Read(1); err != ErrClosed {
		t.Error("read closed")
	}
	if _, err := s.Write(1); err != ErrClosed {
		t.Error("write closed")
	}
	if _, err := s.Seek(0, SeekSet); err != ErrClosed {
		t.Error("seek closed")
	}
	if err := s.Flush(); err != ErrClosed {
		t.Error("flush closed")
	}
}

func TestStreamSetBufferValidation(t *testing.T) {
	e := newEnv(t)
	s, _ := e.tracer("t").FOpen("f", "w")
	if err := s.SetBuffer(0); err == nil {
		t.Fatal("zero buffer accepted")
	}
	if err := s.SetBuffer(-5); err == nil {
		t.Fatal("negative buffer accepted")
	}
	s.Close()
}

func TestStreamSpatialLocalityVisible(t *testing.T) {
	// Buffered sequential reads must show up as strong spatial locality in
	// the histogram (consecutive distance 0).
	e := newEnv(t)
	tr := e.tracer("w")
	h, _ := tr.Open("f", WRONLY|CREATE)
	h.Write(1 << 20)
	h.Close()
	cfg := blockstats.DefaultConfig()
	_ = cfg
	s, _ := tr.FOpen("f", "r")
	for {
		if _, err := s.Read(4096); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	fl := e.col.Flow("w", "f", 0)
	if zf := Summarize(fl).ZeroDistFrac; zf < 0.9 {
		t.Fatalf("zero-distance fraction = %v, want ~1 (sequential)", zf)
	}
}
