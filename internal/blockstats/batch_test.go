package blockstats

import (
	"math/rand"
	"testing"
)

// naiveSequentialChunks is the per-chunk reference loop that
// RecordSequentialChunks must match bit for bit.
func naiveSequentialChunks(fs *FlowStat, kind OpKind, off, n, chunk int64, rep int, t0, per float64) {
	if n <= 0 {
		return
	}
	if chunk <= 0 || chunk > n {
		chunk = n
	}
	if rep < 1 {
		rep = 1
	}
	i := int64(0)
	for r := 0; r < rep; r++ {
		for pos := int64(0); pos < n; pos += chunk {
			sz := chunk
			if n-pos < sz {
				sz = n - pos
			}
			fs.RecordAccess(kind, off+pos, sz, t0+float64(i)*per, per)
			i++
		}
	}
}

// sameFlowState compares every observable and internal field of two
// FlowStats, including the per-block histogram and scaling state.
func sameFlowState(t *testing.T, label string, got, want *FlowStat) {
	t.Helper()
	if got.ReadOps != want.ReadOps || got.WriteOps != want.WriteOps ||
		got.ReadBytes != want.ReadBytes || got.WriteBytes != want.WriteBytes {
		t.Fatalf("%s: ops/bytes mismatch: got R(%d,%d) W(%d,%d), want R(%d,%d) W(%d,%d)",
			label, got.ReadOps, got.ReadBytes, got.WriteOps, got.WriteBytes,
			want.ReadOps, want.ReadBytes, want.WriteOps, want.WriteBytes)
	}
	if got.ReadTime != want.ReadTime || got.WriteTime != want.WriteTime {
		t.Fatalf("%s: time mismatch: got (%v,%v), want (%v,%v)",
			label, got.ReadTime, got.WriteTime, want.ReadTime, want.WriteTime)
	}
	if got.DistSum != want.DistSum || got.DistN != want.DistN ||
		got.ZeroDist != want.ZeroDist || got.SmallDist != want.SmallDist {
		t.Fatalf("%s: distance mismatch: got (%v,%d,%d,%d), want (%v,%d,%d,%d)",
			label, got.DistSum, got.DistN, got.ZeroDist, got.SmallDist,
			want.DistSum, want.DistN, want.ZeroDist, want.SmallDist)
	}
	if got.lastLoc != want.lastLoc || got.haveLast != want.haveLast {
		t.Fatalf("%s: lastLoc mismatch: got (%d,%v), want (%d,%v)",
			label, got.lastLoc, got.haveLast, want.lastLoc, want.haveLast)
	}
	if got.fileSize != want.fileSize || got.blockSize != want.blockSize || got.capBytes != want.capBytes {
		t.Fatalf("%s: scale mismatch: got size=%d bs=%d cap=%d, want size=%d bs=%d cap=%d",
			label, got.fileSize, got.blockSize, got.capBytes,
			want.fileSize, want.blockSize, want.capBytes)
	}
	// Slots past either histogram's end are untracked, i.e. zero.
	for b := 0; b < max(len(got.blocks), len(want.blocks)); b++ {
		var g, w BlockStat
		if b < len(got.blocks) {
			g = got.blocks[b]
		}
		if b < len(want.blocks) {
			w = want.blocks[b]
		}
		if g != w {
			t.Fatalf("%s: block %d mismatch: got %+v, want %+v", label, b, g, w)
		}
	}
}

type batchCase struct {
	off, n, chunk int64
	rep           int
	t0, per       float64
}

func runBatchEquivalence(t *testing.T, label string, size int64, cfg Config, ops []struct {
	kind OpKind
	c    batchCase
}) {
	t.Helper()
	batch := mustFlow(t, "task", "file", size, cfg)
	naive := mustFlow(t, "task", "file", size, cfg)
	for i, op := range ops {
		batch.RecordSequentialChunks(op.kind, op.c.off, op.c.n, op.c.chunk, op.c.rep, op.c.t0, op.c.per)
		naiveSequentialChunks(naive, op.kind, op.c.off, op.c.n, op.c.chunk, op.c.rep, op.c.t0, op.c.per)
		sameFlowState(t, label+" (after op "+string(rune('0'+i%10))+")", batch, naive)
	}
}

func TestBatchEquivalenceDirected(t *testing.T) {
	cfg := Config{BlocksPerFile: 8, WriteBlockSize: 64}
	type op = struct {
		kind OpKind
		c    batchCase
	}
	cases := []struct {
		name string
		size int64
		cfg  Config
		ops  []op
	}{
		{"single-chunk read", 1024, cfg, []op{
			{Read, batchCase{0, 1024, 0, 1, 0, 0.5}},
		}},
		{"chunked read, repeats", 1024, cfg, []op{
			{Read, batchCase{0, 1024, 100, 3, 1.5, 0.125}},
		}},
		{"offset read then backward seek", 1024, cfg, []op{
			{Read, batchCase{512, 512, 64, 1, 0, 0.25}},
			{Read, batchCase{0, 256, 32, 2, 10, 0.25}},
		}},
		{"growing write triggers rescale", 0, cfg, []op{
			{Write, batchCase{0, 4096, 128, 1, 0, 0.0625}},
		}},
		{"multiple rescales in one scan", 0, cfg, []op{
			{Write, batchCase{0, 1 << 20, 4096, 1, 0, 0.015625}},
		}},
		{"write then re-read at coarser blocks", 0, cfg, []op{
			{Write, batchCase{0, 65536, 512, 1, 0, 0.5}},
			{Read, batchCase{0, 65536, 1024, 2, 100, 0.5}},
		}},
		{"unaligned chunk/block boundaries", 1000, cfg, []op{
			{Read, batchCase{7, 993, 37, 2, 0.25, 0.3}},
			{Write, batchCase{13, 991, 53, 1, 50.5, 0.7}},
		}},
		{"sampled histogram", 10 << 20, Config{BlocksPerFile: 64, WriteBlockSize: 4096, SampleP: 100, SampleT: 10}, []op{
			{Read, batchCase{0, 10 << 20, 1 << 16, 1, 0, 0.5}},
			{Write, batchCase{1 << 20, 9 << 20, 1 << 15, 1, 1000, 0.5}},
		}},
		{"sampled with growth", 0, Config{BlocksPerFile: 16, WriteBlockSize: 256, SampleP: 7, SampleT: 3}, []op{
			{Write, batchCase{0, 1 << 16, 100, 1, 0, 0.5}},
			{Read, batchCase{0, 1 << 16, 333, 3, 500, 0.5}},
		}},
		{"non-dyadic per latency", 1 << 16, cfg, []op{
			{Read, batchCase{0, 1 << 16, 1000, 4, 3.7, 0.1}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runBatchEquivalence(t, tc.name, tc.size, tc.cfg, tc.ops)
		})
	}
}

func TestBatchEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfgs := []Config{
		{BlocksPerFile: 8, WriteBlockSize: 64},
		{BlocksPerFile: 100, WriteBlockSize: 1 << 16},
		{BlocksPerFile: 32, WriteBlockSize: 512, SampleP: 10, SampleT: 3},
	}
	for trial := 0; trial < 200; trial++ {
		cfg := cfgs[trial%len(cfgs)]
		size := int64(0)
		if rng.Intn(2) == 0 {
			size = rng.Int63n(1 << 20)
		}
		batch := mustFlow(t, "task", "file", size, cfg)
		naive := mustFlow(t, "task", "file", size, cfg)
		nOps := 1 + rng.Intn(6)
		for i := 0; i < nOps; i++ {
			kind := Read
			if rng.Intn(2) == 0 {
				kind = Write
			}
			c := batchCase{
				off:   rng.Int63n(1 << 18),
				n:     1 + rng.Int63n(1<<18),
				chunk: rng.Int63n(1 << 12), // 0 means whole-range
				rep:   1 + rng.Intn(3),
				t0:    rng.Float64() * 1e4,
				per:   rng.Float64(),
			}
			batch.RecordSequentialChunks(kind, c.off, c.n, c.chunk, c.rep, c.t0, c.per)
			naiveSequentialChunks(naive, kind, c.off, c.n, c.chunk, c.rep, c.t0, c.per)
			sameFlowState(t, "randomized trial", batch, naive)
		}
	}
}
