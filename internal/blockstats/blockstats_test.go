package blockstats

import (
	"testing"
	"testing/quick"
)

func mustFlow(t *testing.T, task, file string, size int64, cfg Config) *FlowStat {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return FlowStatFor(task, file, size, cfg)
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{DefaultConfig(), true},
		{Config{BlocksPerFile: 0, WriteBlockSize: 1}, false},
		{Config{BlocksPerFile: 1, WriteBlockSize: 0}, false},
		{Config{BlocksPerFile: 1, WriteBlockSize: 1, SampleP: 10, SampleT: 11}, false},
		{Config{BlocksPerFile: 1, WriteBlockSize: 1, SampleP: 10, SampleT: 10}, true},
	}
	for i, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d: validate() = %v, ok=%v", i, err, c.ok)
		}
	}
}

func TestBlockSizeFromFileSize(t *testing.T) {
	cfg := Config{BlocksPerFile: 10, WriteBlockSize: 4096}
	fs := mustFlow(t, "t", "f", 1000, cfg)
	if fs.BlockSize() != 100 {
		t.Fatalf("BlockSize = %d, want 100", fs.BlockSize())
	}
	// Unknown size: historical/user-guided write block size.
	fs2 := mustFlow(t, "t", "g", 0, cfg)
	if fs2.BlockSize() != 4096 {
		t.Fatalf("BlockSize = %d, want 4096", fs2.BlockSize())
	}
}

func TestRecordAccessAggregates(t *testing.T) {
	fs := mustFlow(t, "t", "f", 1000, DefaultConfig())
	fs.RecordAccess(Read, 0, 100, 0, 0.5)
	fs.RecordAccess(Read, 100, 100, 1, 0.25)
	fs.RecordAccess(Write, 500, 50, 2, 0.1)
	if fs.ReadOps != 2 || fs.ReadBytes != 200 {
		t.Errorf("reads: ops=%d bytes=%d", fs.ReadOps, fs.ReadBytes)
	}
	if fs.WriteOps != 1 || fs.WriteBytes != 50 {
		t.Errorf("writes: ops=%d bytes=%d", fs.WriteOps, fs.WriteBytes)
	}
	if fs.ReadTime != 0.75 || fs.WriteTime != 0.1 {
		t.Errorf("latency: rd=%v wr=%v", fs.ReadTime, fs.WriteTime)
	}
	if fs.ReadBytes+fs.WriteBytes != 250 {
		t.Errorf("total volume = %d", fs.ReadBytes+fs.WriteBytes)
	}
}

func TestZeroLengthAccessIgnored(t *testing.T) {
	fs := mustFlow(t, "t", "f", 100, DefaultConfig())
	fs.RecordAccess(Read, 0, 0, 0, 0)
	fs.RecordAccess(Read, 0, -5, 0, 0)
	if fs.ReadOps != 0 || fs.TrackedBlocks() != 0 {
		t.Fatalf("zero/negative access recorded: %v", fs)
	}
}

func TestFootprintVsVolume(t *testing.T) {
	cfg := Config{BlocksPerFile: 100, WriteBlockSize: 1}
	fs := mustFlow(t, "t", "f", 1000, cfg) // block size 10
	// Read the same 100-byte region 5 times: volume 500, footprint 100.
	for i := 0; i < 5; i++ {
		fs.RecordAccess(Read, 0, 100, float64(i), 0.1)
	}
	if got := fs.ReadBytes; got != 500 {
		t.Errorf("ReadBytes = %d, want 500", got)
	}
	if got := fs.Footprint(Read); got != 100 {
		t.Errorf("Footprint = %d, want 100", got)
	}
}

func TestFootprintCappedAtFileSize(t *testing.T) {
	cfg := Config{BlocksPerFile: 4, WriteBlockSize: 1}
	fs := mustFlow(t, "t", "f", 100, cfg) // block size 25
	fs.RecordAccess(Read, 0, 100, 0, 0)
	if got := fs.Footprint(Read); got != 100 {
		t.Errorf("Footprint = %d, want 100 (capped)", got)
	}
}

func TestConsecutiveDistance(t *testing.T) {
	fs := mustFlow(t, "t", "f", 1000, DefaultConfig())
	fs.RecordAccess(Read, 0, 100, 0, 0)   // next expected at 100
	fs.RecordAccess(Read, 100, 100, 1, 0) // distance 0: sequential
	fs.RecordAccess(Read, 500, 100, 2, 0) // distance 300
	if fs.DistN != 2 {
		t.Fatalf("DistN = %d", fs.DistN)
	}
	if fs.ZeroDist != 1 {
		t.Errorf("ZeroDist = %d, want 1", fs.ZeroDist)
	}
	if fs.DistSum != 300 {
		t.Errorf("DistSum = %v, want 300", fs.DistSum)
	}
}

func TestSmallDistanceFraction(t *testing.T) {
	cfg := Config{BlocksPerFile: 10, WriteBlockSize: 1}
	fs := mustFlow(t, "t", "f", 1000, cfg) // block size 100
	fs.RecordAccess(Read, 0, 10, 0, 0)
	fs.RecordAccess(Read, 50, 10, 1, 0)  // distance 40 < 100
	fs.RecordAccess(Read, 900, 10, 2, 0) // distance 840 >= 100
	if fs.SmallDist != 1 || fs.DistN != 2 {
		t.Errorf("SmallDist/DistN = %d/%d, want 1/2", fs.SmallDist, fs.DistN)
	}
}

func TestOpenCloseLifetime(t *testing.T) {
	fs := mustFlow(t, "t", "f", 100, DefaultConfig())
	fs.RecordOpen(10)
	fs.RecordClose(25)
	fs.RecordOpen(30)
	fs.RecordClose(40)
	if fs.OpenTime != 10 || fs.CloseTime != 40 {
		t.Errorf("open/close window = [%v, %v], want [10, 40] (first open to last close)",
			fs.OpenTime, fs.CloseTime)
	}
	if fs.Opens != 2 || fs.Closes != 2 {
		t.Errorf("open/close counts: %d/%d", fs.Opens, fs.Closes)
	}
}

func TestConstantSpaceUnderManyOps(t *testing.T) {
	// §3 scaling claim: histogram size must not grow with operation count.
	cfg := Config{BlocksPerFile: 32, WriteBlockSize: 1 << 10}
	fs := mustFlow(t, "t", "f", 1<<20, cfg)
	for i := 0; i < 100000; i++ {
		off := int64(i*7919) % (1 << 20)
		fs.RecordAccess(Read, off, 512, float64(i), 0.001)
	}
	if fs.TrackedBlocks() > cfg.BlocksPerFile {
		t.Fatalf("tracked blocks = %d, exceeds bound %d", fs.TrackedBlocks(), cfg.BlocksPerFile)
	}
}

func TestConstantSpaceUnderGrowingFile(t *testing.T) {
	// A file produced by appends must trigger block-size rescaling rather
	// than histogram growth.
	cfg := Config{BlocksPerFile: 16, WriteBlockSize: 64}
	fs := mustFlow(t, "t", "f", 0, cfg)
	var off int64
	for i := 0; i < 10000; i++ {
		fs.RecordAccess(Write, off, 128, float64(i), 0.001)
		off += 128
	}
	if fs.TrackedBlocks() > cfg.BlocksPerFile {
		t.Fatalf("tracked blocks = %d, exceeds bound %d", fs.TrackedBlocks(), cfg.BlocksPerFile)
	}
	if fs.FileSize() != 128*10000 {
		t.Fatalf("FileSize = %d", fs.FileSize())
	}
	if fs.BlockSize() < fs.FileSize()/int64(cfg.BlocksPerFile) {
		t.Fatalf("block size %d too small for file %d", fs.BlockSize(), fs.FileSize())
	}
	// Aggregate counters stay exact through rescales.
	if fs.WriteBytes != 128*10000 {
		t.Fatalf("WriteBytes = %d", fs.WriteBytes)
	}
}

func TestRescalePreservesBlockTotals(t *testing.T) {
	cfg := Config{BlocksPerFile: 4, WriteBlockSize: 100}
	fs := mustFlow(t, "t", "f", 0, cfg)
	// Fill 4 blocks, then grow to force one rescale.
	for b := int64(0); b < 4; b++ {
		fs.RecordAccess(Write, b*100, 100, float64(b), 0)
	}
	var before uint64
	for _, b := range fs.Blocks() {
		before += fs.Block(b).WriteBytes
	}
	fs.RecordAccess(Write, 400, 100, 5, 0) // forces rescale to block size 200
	var after uint64
	for _, b := range fs.Blocks() {
		after += fs.Block(b).WriteBytes
	}
	if after != before+100 {
		t.Fatalf("block byte totals: before=%d after=%d", before, after)
	}
	if fs.BlockSize() != 200 {
		t.Fatalf("BlockSize = %d, want 200", fs.BlockSize())
	}
}

func TestSpatialSamplingBoundsTracking(t *testing.T) {
	cfg := Config{BlocksPerFile: 1000, WriteBlockSize: 1, SampleP: 100, SampleT: 20}
	fs := mustFlow(t, "t", "f", 100000, cfg) // block size 100, 1000 blocks
	for b := int64(0); b < 1000; b++ {
		fs.RecordAccess(Read, b*100, 100, float64(b), 0)
	}
	frac := float64(fs.TrackedBlocks()) / 1000
	if frac < 0.1 || frac > 0.3 {
		t.Fatalf("sampled fraction = %v, want ~0.2", frac)
	}
	// Footprint is estimated by scaling the sample back up.
	fp := float64(fs.Footprint(Read))
	if fp < 70000 || fp > 100000 {
		t.Fatalf("estimated footprint = %v, want ~100000", fp)
	}
}

func TestSamplingDeterministicAcrossTasks(t *testing.T) {
	// Correctness requirement (§3): producer and consumer of the same file
	// must sample identical locations.
	cfg := Config{BlocksPerFile: 100, WriteBlockSize: 1, SampleP: 10, SampleT: 3}
	prod := mustFlow(t, "producer", "shared.dat", 10000, cfg)
	cons := mustFlow(t, "consumer", "shared.dat", 10000, cfg)
	for b := int64(0); b < 100; b++ {
		prod.RecordAccess(Write, b*100, 100, float64(b), 0)
	}
	for b := int64(99); b >= 0; b-- { // reversed order: must not matter
		cons.RecordAccess(Read, b*100, 100, float64(200-b), 0)
	}
	pb, cb := prod.Blocks(), cons.Blocks()
	if len(pb) != len(cb) {
		t.Fatalf("sampled block counts differ: %d vs %d", len(pb), len(cb))
	}
	for i := range pb {
		if pb[i] != cb[i] {
			t.Fatalf("sampled blocks differ at %d: %d vs %d", i, pb[i], cb[i])
		}
	}
}

func TestHotBlocks(t *testing.T) {
	cfg := Config{BlocksPerFile: 10, WriteBlockSize: 1}
	fs := mustFlow(t, "t", "f", 1000, cfg) // block size 100
	for i := 0; i < 5; i++ {
		fs.RecordAccess(Read, 300, 100, float64(i), 0) // block 3 hottest
	}
	fs.RecordAccess(Read, 0, 100, 10, 0)
	fs.RecordAccess(Read, 700, 100, 11, 0)
	hot := fs.HotBlocks(2)
	if len(hot) != 2 || hot[0] != 3 {
		t.Fatalf("HotBlocks = %v, want [3 ...]", hot)
	}
	if got := fs.HotBlocks(100); len(got) != 3 {
		t.Fatalf("HotBlocks(100) len = %d, want 3", len(got))
	}
}

func TestBlockByteAttribution(t *testing.T) {
	cfg := Config{BlocksPerFile: 10, WriteBlockSize: 1}
	fs := mustFlow(t, "t", "f", 1000, cfg) // block size 100
	// An access spanning blocks 0..2 must split bytes per block.
	fs.RecordAccess(Read, 50, 200, 0, 0) // 50 in b0, 100 in b1, 50 in b2
	if got := fs.Block(0).ReadBytes; got != 50 {
		t.Errorf("block0 bytes = %d, want 50", got)
	}
	if got := fs.Block(1).ReadBytes; got != 100 {
		t.Errorf("block1 bytes = %d, want 100", got)
	}
	if got := fs.Block(2).ReadBytes; got != 50 {
		t.Errorf("block2 bytes = %d, want 50", got)
	}
}

func TestQuickFootprintBounded(t *testing.T) {
	// Property: for any access sequence, the footprint never exceeds the
	// block-granularity upper bound (each access of n bytes can touch at most
	// n/blockSize+2 blocks), and tracking stays within the constant bound.
	cfg := Config{BlocksPerFile: 32, WriteBlockSize: 16}
	f := func(offs []uint16, lens []uint8) bool {
		fs := FlowStatFor("t", "f", 1<<16, cfg)
		var blockBound int64
		for i, o := range offs {
			n := int64(1)
			if i < len(lens) {
				n += int64(lens[i])
			}
			fs.RecordAccess(Read, int64(o), n, float64(i), 0)
			blockBound += n/fs.BlockSize() + 2
		}
		return int64(fs.Footprint(Read)) <= blockBound*fs.BlockSize() &&
			fs.TrackedBlocks() <= cfg.BlocksPerFile
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFootprintMonotone(t *testing.T) {
	// Property: adding accesses never decreases total footprint (no sampling,
	// no rescale since file size fixed).
	cfg := Config{BlocksPerFile: 64, WriteBlockSize: 16}
	f := func(offs []uint16) bool {
		fs := FlowStatFor("t", "f", 1<<16, cfg)
		prev := uint64(0)
		for i, o := range offs {
			fs.RecordAccess(Read, int64(o), 64, float64(i), 0)
			fp := fs.TotalFootprint()
			if fp < prev {
				return false
			}
			prev = fp
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReuseFactorEmptyFlow(t *testing.T) {
	fs := mustFlow(t, "t", "f", 100, DefaultConfig())
	if got := fs.Footprint(Read); got != 0 {
		t.Fatalf("Footprint on empty flow = %v, want 0", got)
	}
	if fs.DistN != 0 || fs.TrackedBlocks() != 0 {
		t.Fatalf("empty flow has %d distance samples, %d blocks", fs.DistN, fs.TrackedBlocks())
	}
}

func TestOpKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("OpKind.String wrong")
	}
}

func TestFlowStatString(t *testing.T) {
	fs := mustFlow(t, "task1", "file1", 100, DefaultConfig())
	if s := fs.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestMergeAggregates(t *testing.T) {
	cfg := Config{BlocksPerFile: 16, WriteBlockSize: 100}
	a := mustFlow(t, "t", "f", 1600, cfg)
	b := mustFlow(t, "t", "f", 1600, cfg)
	a.RecordOpen(0)
	a.RecordAccess(Read, 0, 400, 1, 0.5)
	a.RecordClose(2)
	b.RecordOpen(3)
	b.RecordAccess(Read, 800, 400, 4, 0.25)
	b.RecordAccess(Write, 1200, 100, 5, 0.1)
	b.RecordClose(6)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.ReadOps != 2 || a.ReadBytes != 800 || a.WriteBytes != 100 {
		t.Fatalf("aggregates: %+v", a)
	}
	if a.ReadTime != 0.75 || a.WriteTime != 0.1 {
		t.Fatalf("latency: rd=%v wr=%v", a.ReadTime, a.WriteTime)
	}
	// Lifetime spans both collectors' windows.
	if a.OpenTime != 0 || a.CloseTime != 6 {
		t.Fatalf("open/close window = [%v, %v], want [0, 6]", a.OpenTime, a.CloseTime)
	}
	// Footprint counts distinct regions from both.
	if fp := a.Footprint(Read); fp != 800 {
		t.Fatalf("read footprint = %d", fp)
	}
}

func TestMergeMismatchErrors(t *testing.T) {
	cfg := DefaultConfig()
	a := mustFlow(t, "t", "f", 100, cfg)
	b := mustFlow(t, "t", "g", 100, cfg)
	if err := a.Merge(b); err == nil {
		t.Fatal("mismatched file accepted")
	}
	cfg2 := cfg
	cfg2.SampleP, cfg2.SampleT = 10, 2
	c := mustFlow(t, "t", "f", 100, cfg2)
	if err := a.Merge(c); err == nil {
		t.Fatal("mismatched sampling accepted")
	}
}

func TestMergeDifferentBlockSizes(t *testing.T) {
	cfg := Config{BlocksPerFile: 8, WriteBlockSize: 100}
	// a saw a small file (fine blocks); b saw it after growth (coarse).
	a := mustFlow(t, "t", "f", 800, cfg)  // block 100
	b := mustFlow(t, "t", "f", 6400, cfg) // block 800
	a.RecordAccess(Read, 0, 800, 0, 0)
	b.RecordAccess(Read, 0, 6400, 1, 0)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.BlockSize() < 800 {
		t.Fatalf("merged block size = %d, want >= 800", a.BlockSize())
	}
	if a.TrackedBlocks() > cfg.BlocksPerFile {
		t.Fatalf("tracked = %d exceeds bound", a.TrackedBlocks())
	}
	if a.ReadBytes != 7200 {
		t.Fatalf("bytes = %d", a.ReadBytes)
	}
	if fp := a.Footprint(Read); fp != 6400 {
		t.Fatalf("footprint = %d, want full file", fp)
	}
}

func TestQuickMergeEquivalentToSingle(t *testing.T) {
	// Property: splitting an access stream across two histograms and
	// merging equals recording it all in one (aggregates; footprints agree
	// to block granularity).
	cfg := Config{BlocksPerFile: 32, WriteBlockSize: 64}
	f := func(offs []uint16, split uint8) bool {
		if len(offs) == 0 {
			return true
		}
		k := int(split) % len(offs)
		one := FlowStatFor("t", "f", 1<<16, cfg)
		a := FlowStatFor("t", "f", 1<<16, cfg)
		b := FlowStatFor("t", "f", 1<<16, cfg)
		for i, o := range offs {
			one.RecordAccess(Read, int64(o), 64, float64(i), 0.01)
			if i < k {
				a.RecordAccess(Read, int64(o), 64, float64(i), 0.01)
			} else {
				b.RecordAccess(Read, int64(o), 64, float64(i), 0.01)
			}
		}
		if err := a.Merge(b); err != nil {
			return false
		}
		return a.ReadOps == one.ReadOps &&
			a.ReadBytes == one.ReadBytes &&
			a.Footprint(Read) == one.Footprint(Read)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
