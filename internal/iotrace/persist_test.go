package iotrace

import (
	"bytes"
	"strings"
	"testing"

	"datalife/internal/blockstats"
)

func collectSample(t *testing.T) *Collector {
	t.Helper()
	e := newEnv(t)
	e.col.TaskStarted("w", 0)
	tr := e.tracer("w")
	h, err := tr.Open("data.bin", WRONLY|CREATE)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		h.Write(1000)
	}
	h.Close()
	e.col.TaskEnded("w", e.clk.Now())
	e.col.TaskStarted("r", e.clk.Now())
	rd := e.tracer("r")
	rh, err := rd.Open("data.bin", RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	rh.Read(4000) // partial footprint
	rh.Close()
	e.col.TaskEnded("r", e.clk.Now())
	return e.col
}

func TestSaveLoadRoundTrip(t *testing.T) {
	col := collectSample(t)
	var buf bytes.Buffer
	if err := col.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Config.BlocksPerFile != col.Config().BlocksPerFile {
		t.Fatal("config lost")
	}
	if len(st.Tasks) != 2 || len(st.Flows) != 2 {
		t.Fatalf("tasks=%d flows=%d", len(st.Tasks), len(st.Flows))
	}
	var reader *SavedFlow
	for i := range st.Flows {
		if st.Flows[i].Task == "r" {
			reader = &st.Flows[i]
		}
	}
	if reader == nil {
		t.Fatal("reader flow missing")
	}
	if reader.ReadBytes != 4000 || reader.ReadOps != 1 {
		t.Fatalf("reader: %+v", reader)
	}
	if reader.ReadFootprint == 0 || reader.FileSize != 8000 {
		t.Fatalf("reader derived fields: %+v", reader)
	}
	// Lifetimes survive.
	if st.Tasks[0].Lifetime() <= 0 {
		t.Fatal("task lifetime lost")
	}
}

func TestLoadJSONErrors(t *testing.T) {
	if _, err := LoadJSON(strings.NewReader("{broken")); err == nil {
		t.Fatal("bad json accepted")
	}
}

func TestSaveIsDeterministic(t *testing.T) {
	col := collectSample(t)
	var a, b bytes.Buffer
	if err := col.SaveJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := col.SaveJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("serialization not deterministic")
	}
}

// TestSummarizeDerivedMetrics pins the per-flow metrics the graph builders
// read: locality fractions, the open-to-close lifetime, footprints only for
// directions with ops, and zeros (not NaN) for an empty flow. Summarize must
// also agree with the SaveJSON/LoadJSON round trip.
func TestSummarizeDerivedMetrics(t *testing.T) {
	cfg := blockstats.Config{BlocksPerFile: 10, WriteBlockSize: 1}
	fl := blockstats.FlowStatFor("t", "f", 1000, cfg) // block size 100
	if sf := Summarize(fl); sf != (SavedFlow{Task: "t", File: "f", FileSize: 1000}) {
		t.Fatalf("empty flow summary = %+v", sf)
	}
	fl.RecordOpen(10)
	fl.RecordAccess(blockstats.Read, 0, 10, 11, 0)   // first access: no distance
	fl.RecordAccess(blockstats.Read, 10, 10, 12, 0)  // distance 0
	fl.RecordAccess(blockstats.Read, 50, 10, 13, 0)  // distance 30 < block
	fl.RecordAccess(blockstats.Read, 900, 10, 14, 0) // distance 840 >= block
	fl.RecordClose(25)
	fl.RecordOpen(30)
	fl.RecordClose(40)
	sf := Summarize(fl)
	if sf.MeanDistance != 290 || sf.ZeroDistFrac != 1.0/3 || sf.SmallDistFrac != 2.0/3 {
		t.Errorf("distances: mean %v zero %v small %v, want 290, 1/3, 2/3",
			sf.MeanDistance, sf.ZeroDistFrac, sf.SmallDistFrac)
	}
	if sf.FileLifetime != 30 {
		t.Errorf("FileLifetime = %v, want 30 (first open to last close)", sf.FileLifetime)
	}
	if sf.ReadFootprint != 200 || sf.WriteFootprint != 0 {
		t.Errorf("footprints: read %d write %d, want 200, 0", sf.ReadFootprint, sf.WriteFootprint)
	}

	col := MustCollector(cfg)
	*col.Flow("t", "f", 1000) = *fl
	var buf bytes.Buffer
	if err := col.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Flows[0] != sf {
		t.Fatalf("round trip %+v != Summarize %+v", st.Flows[0], sf)
	}
}
