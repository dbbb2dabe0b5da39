// Package blockstats implements the constant-space flow histograms of §3 of
// the DataLife paper ("Data Flow Lifecycles for Optimizing Workflow
// Coordination", SC '23).
//
// For each task-file pair the collector keeps one FlowStat: a handful of
// aggregate counters plus a per-block histogram whose size is bounded by a
// constant, independent of both the number of I/O operations (unlike tracing)
// and the file size (unlike naive histograms). Two mechanisms establish the
// bound, exactly as in the paper:
//
//  1. Adjustable access resolution: the maximum number of tracked locations
//     per file is Config.BlocksPerFile. The block size is a ratio of the file
//     size for reads; for writes, where the final size is unknown, an initial
//     size comes from historical information or user guidance
//     (Config.WriteBlockSize) and the histogram re-scales (doubling the block
//     size and folding bins) whenever a growing file would exceed the bound.
//  2. Spatial sampling: a deterministic hash rule H(L) mod P < T selects a
//     fixed fraction r = T/P of block locations. The rule depends only on the
//     location, never on access order or volume, so every producer and
//     consumer of a lifecycle samples the same locations — the paper's
//     correctness requirement for sampling connected flows.
package blockstats

import (
	"fmt"
	"math"
	"sort"

	"datalife/internal/stats"
)

// OpKind distinguishes the two flow directions of §3: reads are data→task
// (consumer) flow, writes are task→data (producer) flow.
type OpKind uint8

const (
	// Read is consumer flow (data to task).
	Read OpKind = iota
	// Write is producer flow (task to data).
	Write
)

func (k OpKind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Config controls histogram resolution and spatial sampling.
type Config struct {
	// BlocksPerFile caps the number of tracked block locations per file
	// (the paper's "access resolution"). Must be >= 1.
	BlocksPerFile int
	// SampleP and SampleT define the sampling rule H(L) mod P < T.
	// SampleT >= SampleP (or SampleP == 0) disables sampling.
	SampleP, SampleT uint64
	// WriteBlockSize is the initial block size (bytes) for files first seen
	// via writes, standing in for the paper's "historical information or
	// user guidance". Must be >= 1.
	WriteBlockSize int64
}

// DefaultConfig mirrors the paper's guidance: a modest constant number of
// locations and no sampling (sampling is opt-in for very large file sets).
func DefaultConfig() Config {
	return Config{BlocksPerFile: 64, SampleP: 0, SampleT: 0, WriteBlockSize: 1 << 20}
}

// Validate checks the histogram configuration invariants: at least one
// block per file, a positive write block size, and a sampling threshold no
// larger than its modulus. It is the exported entry point used by the
// dflcheck pre-run validator and by the collector, once, at construction.
func (c Config) Validate() error {
	if c.BlocksPerFile < 1 {
		return fmt.Errorf("blockstats: BlocksPerFile must be >= 1, got %d", c.BlocksPerFile)
	}
	if c.WriteBlockSize < 1 {
		return fmt.Errorf("blockstats: WriteBlockSize must be >= 1, got %d", c.WriteBlockSize)
	}
	if c.SampleP != 0 && c.SampleT > c.SampleP {
		return fmt.Errorf("blockstats: SampleT (%d) must be <= SampleP (%d)", c.SampleT, c.SampleP)
	}
	return nil
}

// samplingRate returns r = T/P, or 1 when sampling is disabled.
func (c Config) samplingRate() float64 {
	if c.SampleP == 0 || c.SampleT >= c.SampleP {
		return 1
	}
	return float64(c.SampleT) / float64(c.SampleP)
}

// BlockStat holds the bounded per-location statistics (the paper bounds the
// count at roughly ten). A location is tracked once it has an access; the
// zero value is an untracked slot.
type BlockStat struct {
	Reads, Writes         uint64
	ReadBytes, WriteBytes uint64
	FirstAccess           float64 // virtual seconds
	LastAccess            float64
}

// tracked reports whether the location has been accessed.
func (bs *BlockStat) tracked() bool { return bs.Reads > 0 || bs.Writes > 0 }

// FlowStat is the histogram for one task-file pair: one or two flow relations
// (producer and/or consumer) plus aggregate statistics.
type FlowStat struct {
	Task string
	File string

	cfg       Config
	blockSize int64
	fileSize  int64 // highest byte seen (offset+len), proxy for file size

	// Hot-path precomputation: capBytes is the rescale threshold
	// (blockSize * BlocksPerFile) maintained alongside blockSize, and
	// sampleAll is true when the sampling rule keeps every location —
	// both are derived from cfg once instead of per recorded block.
	capBytes  int64
	sampleAll bool

	// Aggregate counters (exact, not sampled).
	ReadOps, WriteOps     uint64
	ReadBytes, WriteBytes uint64
	ReadTime, WriteTime   float64 // total blocking latency, virtual seconds
	OpenTime, CloseTime   float64 // first open / last close, virtual seconds
	Opens, Closes         uint64

	// Consecutive access distance statistics (spatial locality, §4.2).
	haveLast  bool
	lastLoc   int64
	DistSum   float64 // sum of |loc_i - loc_{i-1}| in bytes
	DistN     uint64
	ZeroDist  uint64 // consecutive accesses at identical location (temporal locality)
	SmallDist uint64 // consecutive accesses within one block (spatial locality)

	// blocks is the per-location histogram indexed by block number: one
	// contiguous, pointer-free slot per location, grown to the highest
	// touched block. Every record keeps fileSize <= capBytes, so the length
	// never exceeds BlocksPerFile. Untracked slots (unsampled or never
	// accessed) stay all-zero.
	blocks []BlockStat
}

// FlowStatFor creates the histogram for one task-file pair. fileSize may be 0
// when unknown (e.g. a file about to be produced by writes). cfg must have
// passed Config.Validate: callers validate once at construction (e.g. a
// collector) and create flows on the record path without an error check.
func FlowStatFor(task, file string, fileSize int64, cfg Config) *FlowStat {
	fs := &FlowStat{
		Task:     task,
		File:     file,
		cfg:      cfg,
		fileSize: fileSize,
	}
	fs.blockSize = cfg.initialBlockSize(fileSize)
	fs.capBytes = fs.blockSize * int64(cfg.BlocksPerFile)
	fs.sampleAll = cfg.SampleP == 0 || cfg.SampleT >= cfg.SampleP
	return fs
}

// sampledBlock reports whether block b of this file is tracked under the rule
// H(L) mod P < T, using the precomputed no-sampling fast path.
func (fs *FlowStat) sampledBlock(b int64) bool {
	return fs.sampleAll || stats.HashLocation(fs.File, b)%fs.cfg.SampleP < fs.cfg.SampleT
}

// initialBlockSize picks the block size: a ratio of file size for files whose
// size is known (reads), the historical/user-guided size otherwise (writes).
func (c Config) initialBlockSize(fileSize int64) int64 {
	if fileSize > 0 {
		bs := (fileSize + int64(c.BlocksPerFile) - 1) / int64(c.BlocksPerFile)
		if bs < 1 {
			bs = 1
		}
		return bs
	}
	return c.WriteBlockSize
}

// BlockSize returns the current block size in bytes.
func (fs *FlowStat) BlockSize() int64 { return fs.blockSize }

// FileSize returns the largest file extent observed.
func (fs *FlowStat) FileSize() int64 { return fs.fileSize }

// TrackedBlocks returns the number of locations currently in the histogram.
func (fs *FlowStat) TrackedBlocks() int {
	n := 0
	for i := range fs.blocks {
		if fs.blocks[i].tracked() {
			n++
		}
	}
	return n
}

// RecordOpen notes an open at virtual time t.
func (fs *FlowStat) RecordOpen(t float64) {
	if fs.Opens == 0 || t < fs.OpenTime {
		fs.OpenTime = t
	}
	fs.Opens++
}

// RecordClose notes a close at virtual time t.
func (fs *FlowStat) RecordClose(t float64) {
	if t > fs.CloseTime {
		fs.CloseTime = t
	}
	fs.Closes++
}

// RecordAccess records one read or write of n bytes at byte offset off,
// starting at virtual time t and blocking for dt seconds.
func (fs *FlowStat) RecordAccess(kind OpKind, off, n int64, t, dt float64) {
	if n <= 0 {
		return
	}
	end := off + n
	if end > fs.fileSize {
		fs.fileSize = end
	}
	switch kind {
	case Read:
		fs.ReadOps++
		fs.ReadBytes += uint64(n)
		fs.ReadTime += dt
	case Write:
		fs.WriteOps++
		fs.WriteBytes += uint64(n)
		fs.WriteTime += dt
	}

	// Consecutive access distance (seek distance between successive ops).
	if fs.haveLast {
		d := off - fs.lastLoc
		if d < 0 {
			d = -d
		}
		fs.DistSum += float64(d)
		fs.DistN++
		if d == 0 {
			fs.ZeroDist++
		}
		if d < fs.blockSize {
			fs.SmallDist++
		}
	}
	fs.haveLast = true
	fs.lastLoc = off + n // next sequential access has distance 0

	if fs.fileSize > fs.capBytes {
		fs.rescaleIfNeeded()
	}

	// Per-block histogram, subject to spatial sampling. The common access is
	// a single block (chunked I/O at or below the block size), so that case
	// skips the loop.
	first := off / fs.blockSize
	last := (end - 1) / fs.blockSize
	if first == last {
		fs.bumpBlock(first, kind, 1, uint64(n), t, t)
		return
	}
	for b := first; b <= last; b++ {
		lo := b * fs.blockSize
		hi := lo + fs.blockSize
		if lo < off {
			lo = off
		}
		if hi > end {
			hi = end
		}
		fs.bumpBlock(b, kind, 1, uint64(hi-lo), t, t)
	}
}

// bumpBlock folds cnt accesses totalling bytes into block b, with first/last
// access times tFirst/tLast. The sampling rule is consulted only for a
// location not yet tracked; a new location's window starts at [tFirst, 0].
func (fs *FlowStat) bumpBlock(b int64, kind OpKind, cnt, bytes uint64, tFirst, tLast float64) {
	if b >= int64(len(fs.blocks)) || !fs.blocks[b].tracked() {
		if !fs.sampledBlock(b) {
			return
		}
		fs.cover(b)
		fs.blocks[b].FirstAccess = tFirst
	}
	bs := &fs.blocks[b]
	switch kind {
	case Read:
		bs.Reads += cnt
		bs.ReadBytes += bytes
	case Write:
		bs.Writes += cnt
		bs.WriteBytes += bytes
	}
	if tFirst < bs.FirstAccess {
		bs.FirstAccess = tFirst
	}
	if tLast > bs.LastAccess {
		bs.LastAccess = tLast
	}
}

// foldInto merges the stats src of one location into block b: counts and
// bytes add and the access window widens. An untracked b takes src as is,
// if the sampling rule keeps b; an untracked src changes nothing.
func (fs *FlowStat) foldInto(b int64, src BlockStat) {
	if !src.tracked() {
		return
	}
	if b >= int64(len(fs.blocks)) || !fs.blocks[b].tracked() {
		if fs.sampledBlock(b) {
			fs.cover(b)
			fs.blocks[b] = src
		}
		return
	}
	dst := &fs.blocks[b]
	dst.Reads += src.Reads
	dst.Writes += src.Writes
	dst.ReadBytes += src.ReadBytes
	dst.WriteBytes += src.WriteBytes
	if src.FirstAccess < dst.FirstAccess {
		dst.FirstAccess = src.FirstAccess
	}
	if src.LastAccess > dst.LastAccess {
		dst.LastAccess = src.LastAccess
	}
}

// cover grows the histogram with untracked slots up to block b.
func (fs *FlowStat) cover(b int64) {
	if n := int(b) + 1; n > len(fs.blocks) {
		fs.blocks = append(fs.blocks, make([]BlockStat, n-len(fs.blocks))...)
	}
}

// rescaleIfNeeded doubles the block size and folds histogram bins whenever the
// observed file extent would need more than BlocksPerFile locations. This is
// the paper's "adjustable access resolution" for growing (written) files.
// Bins fold in place, in ascending order: slot b is read and cleared before
// anything folds into it (its sources 2b and 2b+1 come later), so the
// dropped upper half ends all-zero.
func (fs *FlowStat) rescaleIfNeeded() {
	for fs.fileSize > fs.capBytes {
		fs.blockSize *= 2
		fs.capBytes *= 2
		for b := range fs.blocks {
			src := fs.blocks[b]
			fs.blocks[b] = BlockStat{}
			// A folded location survives only if the sampling rule keeps it
			// at the new resolution, preserving determinism across rescales.
			fs.foldInto(int64(b/2), src)
		}
		fs.blocks = fs.blocks[:(len(fs.blocks)+1)/2]
	}
}

// Footprint estimates the unique bytes touched in the given direction from
// the sampled per-block histogram, scaled by 1/r and capped at the file size.
func (fs *FlowStat) Footprint(kind OpKind) uint64 {
	var blocks int64
	for i := range fs.blocks {
		if bs := &fs.blocks[i]; (kind == Read && bs.Reads > 0) || (kind == Write && bs.Writes > 0) {
			blocks++
		}
	}
	return fs.estimate(blocks)
}

// TotalFootprint estimates unique bytes touched by either direction.
func (fs *FlowStat) TotalFootprint() uint64 { return fs.estimate(int64(fs.TrackedBlocks())) }

// estimate scales a count of tracked blocks to bytes: by 1/r for sampling and
// by the block size, capped at the file size.
func (fs *FlowStat) estimate(blocks int64) uint64 {
	est := int64(math.Round(float64(blocks) / fs.cfg.samplingRate() * float64(fs.blockSize)))
	if fs.fileSize > 0 && est > fs.fileSize {
		est = fs.fileSize
	}
	return uint64(est)
}

// HotBlocks returns up to n block indices ordered by descending access count,
// ties broken by index — the candidates for caching (§5.2).
func (fs *FlowStat) HotBlocks(n int) []int64 {
	type bc struct {
		b int64
		c uint64
	}
	var all []bc
	for b := range fs.blocks {
		if bs := &fs.blocks[b]; bs.tracked() {
			all = append(all, bc{int64(b), bs.Reads + bs.Writes})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].b < all[j].b
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].b
	}
	return out
}

// Block returns the statistics for block b, or nil if untracked. The pointer
// is valid until the next record or merge.
func (fs *FlowStat) Block(b int64) *BlockStat {
	if b < 0 || b >= int64(len(fs.blocks)) || !fs.blocks[b].tracked() {
		return nil
	}
	return &fs.blocks[b]
}

// Blocks returns tracked block indices in ascending order.
func (fs *FlowStat) Blocks() []int64 {
	var out []int64
	for b := range fs.blocks {
		if fs.blocks[b].tracked() {
			out = append(out, int64(b))
		}
	}
	return out
}

func (fs *FlowStat) String() string {
	return fmt.Sprintf("flow{%s<->%s rd=%dB/%dops wr=%dB/%dops fp=%dB blocks=%d}",
		fs.Task, fs.File, fs.ReadBytes, fs.ReadOps, fs.WriteBytes, fs.WriteOps,
		fs.TotalFootprint(), fs.TrackedBlocks())
}
