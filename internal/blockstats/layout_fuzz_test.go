package blockstats

import (
	"math"
	"sort"
	"testing"

	"datalife/internal/stats"
)

// mapHist is the sparse reference layout: the per-block histogram as a map
// from block index to its stats, with the same resolution and sampling rules
// as FlowStat. FuzzDenseLayout checks the dense slice against it.
type mapHist struct {
	file      string
	cfg       Config
	blockSize int64
	fileSize  int64
	blocks    map[int64]*BlockStat
}

func newMapHist(file string, fileSize int64, cfg Config) *mapHist {
	bs := cfg.initialBlockSize(fileSize)
	return &mapHist{file: file, cfg: cfg, blockSize: bs, fileSize: fileSize,
		blocks: make(map[int64]*BlockStat)}
}

func (h *mapHist) capBytes() int64 { return h.blockSize * int64(h.cfg.BlocksPerFile) }

func (h *mapHist) sampled(b int64) bool {
	c := h.cfg
	return c.SampleP == 0 || c.SampleT >= c.SampleP || stats.HashLocation(h.file, b)%c.SampleP < c.SampleT
}

func (h *mapHist) bump(b int64, kind OpKind, bytes uint64, t float64) {
	if !h.sampled(b) {
		return
	}
	bs := h.blocks[b]
	if bs == nil {
		bs = &BlockStat{FirstAccess: t}
		h.blocks[b] = bs
	}
	if kind == Read {
		bs.Reads++
		bs.ReadBytes += bytes
	} else {
		bs.Writes++
		bs.WriteBytes += bytes
	}
	bs.FirstAccess = math.Min(bs.FirstAccess, t)
	bs.LastAccess = math.Max(bs.LastAccess, t)
}

func (h *mapHist) add(dst map[int64]*BlockStat, b int64, src *BlockStat) {
	if !h.sampled(b) {
		return
	}
	d := dst[b]
	if d == nil {
		cp := *src
		dst[b] = &cp
		return
	}
	d.Reads += src.Reads
	d.Writes += src.Writes
	d.ReadBytes += src.ReadBytes
	d.WriteBytes += src.WriteBytes
	d.FirstAccess = math.Min(d.FirstAccess, src.FirstAccess)
	d.LastAccess = math.Max(d.LastAccess, src.LastAccess)
}

func (h *mapHist) rescale() {
	for h.fileSize > h.capBytes() {
		h.blockSize *= 2
		folded := make(map[int64]*BlockStat, len(h.blocks))
		for b, bs := range h.blocks {
			h.add(folded, b/2, bs)
		}
		h.blocks = folded
	}
}

func (h *mapHist) access(kind OpKind, off, n int64, t float64) {
	if n <= 0 {
		return
	}
	h.fileSize = max(h.fileSize, off+n)
	h.rescale()
	for b := off / h.blockSize; b <= (off+n-1)/h.blockSize; b++ {
		lo, hi := max(b*h.blockSize, off), min((b+1)*h.blockSize, off+n)
		h.bump(b, kind, uint64(hi-lo), t)
	}
}

// chunks is the per-chunk loop RecordSequentialChunks stands for.
func (h *mapHist) chunks(kind OpKind, off, n, chunk int64, rep int, t0, per float64) {
	if chunk <= 0 || chunk > n {
		chunk = n
	}
	i := 0
	for r := 0; r < max(rep, 1); r++ {
		for pos := int64(0); pos < n; pos += chunk {
			h.access(kind, off+pos, min(chunk, n-pos), t0+float64(i)*per)
			i++
		}
	}
}

func (h *mapHist) merge(o *mapHist) {
	h.fileSize = max(h.fileSize, o.fileSize)
	h.rescale()
	for h.blockSize < o.blockSize {
		saved := h.fileSize
		h.fileSize = max(saved, 2*h.capBytes())
		h.rescale()
		h.fileSize = saved
	}
	for b, bs := range o.blocks {
		h.add(h.blocks, b*o.blockSize/h.blockSize, bs)
	}
	h.rescale()
}

func (h *mapHist) footprint(count func(*BlockStat) bool) uint64 {
	var n int64
	for _, bs := range h.blocks {
		if count(bs) {
			n++
		}
	}
	est := int64(math.Round(float64(n) / h.cfg.samplingRate() * float64(h.blockSize)))
	if h.fileSize > 0 && est > h.fileSize {
		est = h.fileSize
	}
	return uint64(est)
}

// sameAsMap compares every observable of the dense histogram with the map.
func sameAsMap(t *testing.T, step int, fs *FlowStat, h *mapHist) {
	t.Helper()
	if fs.BlockSize() != h.blockSize || fs.FileSize() != h.fileSize {
		t.Fatalf("step %d: block/file size %d/%d, map %d/%d",
			step, fs.BlockSize(), fs.FileSize(), h.blockSize, h.fileSize)
	}
	want := make([]int64, 0, len(h.blocks))
	for b := range h.blocks {
		want = append(want, b)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := fs.Blocks()
	if len(got) != len(want) || fs.TrackedBlocks() != len(want) {
		t.Fatalf("step %d: blocks %v (%d tracked), map %v", step, got, fs.TrackedBlocks(), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d: blocks %v, map %v", step, got, want)
		}
	}
	for b := int64(-1); b <= int64(fs.cfg.BlocksPerFile); b++ {
		g, w := fs.Block(b), h.blocks[b]
		if (g == nil) != (w == nil) || (g != nil && *g != *w) {
			t.Fatalf("step %d: block %d = %+v, map %+v", step, b, g, w)
		}
	}
	if fs.Footprint(Read) != h.footprint(func(bs *BlockStat) bool { return bs.Reads > 0 }) ||
		fs.Footprint(Write) != h.footprint(func(bs *BlockStat) bool { return bs.Writes > 0 }) ||
		fs.TotalFootprint() != h.footprint(func(*BlockStat) bool { return true }) {
		t.Fatalf("step %d: footprints %d/%d/%d differ from the map", step,
			fs.Footprint(Read), fs.Footprint(Write), fs.TotalFootprint())
	}
}

// FuzzDenseLayout replays byte-derived sequences of accesses, chunk batches,
// open/close and merges into the dense histogram and the map reference, and
// requires them to agree after every step. Two flows a and b receive ops;
// a merge folds b into a and starts b afresh.
func FuzzDenseLayout(f *testing.F) {
	f.Add([]byte{3, 0, 0, 10, 20, 1, 1, 0, 40, 8, 2})
	f.Add([]byte{0, 7, 9, 0, 0, 200, 255, 17, 1, 5, 9, 30, 60, 3, 2, 4, 0, 0, 90, 90, 1})
	f.Add([]byte{7, 2, 1, 1, 3, 250, 250, 33, 1, 0, 0, 2, 2, 4, 4, 4, 0, 50, 255, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := Config{BlocksPerFile: 1 + int(data[0]%8), WriteBlockSize: 1 + int64(data[1]%64)}
		if data[0]&8 != 0 {
			cfg.SampleP, cfg.SampleT = 4, uint64(data[0]>>4)%4
		}
		size := int64(data[2]) * 16
		a, b := FlowStatFor("t", "f", size, cfg), FlowStatFor("t", "f", size, cfg)
		ha, hb := newMapHist("f", size, cfg), newMapHist("f", size, cfg)
		ts := 0.0
		for i, step := 3, 0; i+4 <= len(data); i, step = i+4, step+1 {
			op, x, y, z := data[i], int64(data[i+1]), int64(data[i+2]), int64(data[i+3])
			fs, h := a, ha
			if op&8 != 0 {
				fs, h = b, hb
			}
			kind := OpKind(op >> 4 & 1)
			ts += 0.5
			switch op % 8 {
			case 0, 1:
				fs.RecordAccess(kind, x*32, y*4, ts, 0.1)
				h.access(kind, x*32, y*4, ts)
			case 2, 3:
				rep := 1 + int(op>>5)%3
				fs.RecordSequentialChunks(kind, x*16, y*8, z, rep, ts, 0.25)
				h.chunks(kind, x*16, y*8, z, rep, ts, 0.25)
			case 4:
				fs.RecordOpen(ts)
			case 5:
				fs.RecordClose(ts)
			default:
				if err := a.Merge(b); err != nil {
					t.Fatal(err)
				}
				ha.merge(hb)
				b, hb = FlowStatFor("t", "f", size, cfg), newMapHist("f", size, cfg)
			}
			sameAsMap(t, step, a, ha)
			sameAsMap(t, step, b, hb)
		}
	})
}
