package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// spec is the part of BENCHMARK.json the self-tests check against.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func testConfig(t *testing.T, wl string, seed uint64, trace bool) config {
	t.Helper()
	work := filepath.Join(t.TempDir(), "run")
	if err := os.MkdirAll(work, 0o755); err != nil {
		t.Fatal(err)
	}
	return config{workload: wl, seed: seed, seconds: 1, trace: trace, work: work, setups: 1}
}

// TestSmoke runs every workload for a second, untraced and traced, and
// checks that each named metric is printed with its unit and no op failed.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			out, err := w.run(testConfig(t, w.name, 7, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			r := out.res
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					w.name, trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestSeed checks that a seed fully determines a fixed-length run's outputs
// and that a different seed reaches the input generator.
func TestSeed(t *testing.T) {
	for _, w := range workloads {
		ops := 2
		if w.name == "serve-mixed" {
			ops = 3 * queryEvery
		}
		run := func(seed uint64) outcome {
			cfg := testConfig(t, w.name, seed, false)
			cfg.ops = ops
			out, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if !out.res.Correct {
				t.Fatalf("%s seed %d: incorrect run", w.name, seed)
			}
			return out
		}
		a, b, c := run(5), run(5), run(6)
		if a.digest != b.digest || a.res.Attempted != b.res.Attempted {
			t.Errorf("%s: same seed gave digests %s / %s, attempted %d / %d",
				w.name, a.digest, b.digest, a.res.Attempted, b.res.Attempted)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 5 and 6 gave the same digest %s", w.name, a.digest)
		}
	}
}
