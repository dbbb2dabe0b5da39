package main

import (
	"path/filepath"
	"strconv"
)

// perLayer lists the metrics every traced run prints, as BENCHMARK.json at
// the repository root names them. A layer a workload never calls reads 0 on
// that workload.
var perLayer = func() []struct{ name, unit string } {
	type nu = struct{ name, unit string }
	var out []nu
	for _, l := range []string{"workflows.spec", "sim.run", "iotrace.collect", "dfl.build",
		"cpa.path", "patterns.analyze", "advisor.advise", "dfl.template", "sankey.svg", "report.write"} {
		out = append(out, nu{l + "_ms", "ms"}, nu{l + ".allocs", "count"})
	}
	out = append(out,
		nu{"blockstats.tracked_blocks", "count"},
		nu{"iotrace.flows", "count"},
		nu{"dfl.vertices", "count"},
		nu{"dfl.edges", "count"},
		nu{"serve.recover_ms", "ms"},
		nu{"journal.append_us", "us"},
		nu{"journal.fsync_us", "us"},
		nu{"serve.ack_other_us", "us"},
		nu{"iotrace.apply_us", "us"},
	)
	for _, k := range queryKinds {
		out = append(out, nu{"serve.query_fresh_ms." + k, "ms"}, nu{"serve.query_warm_ms." + k, "ms"})
	}
	out = append(out, nu{"serve.sync_wait_ms", "ms"}, nu{"serve.fresh_ratio", "ratio"})
	for _, k := range []string{"rejected", "overloaded", "deadline", "torn-stream"} {
		out = append(out, nu{"serve.rejects." + k, "count"})
	}
	return append(out, nu{"trace.overhead_pct", "%"})
}()

// zeroLayers returns every per-layer metric at 0, for a workload to fill in
// the layers it exercises.
func zeroLayers() map[string]metric {
	m := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = metric{0, l.unit}
	}
	return m
}

// spanFile is where a traced run writes its spans: beside, not inside, the
// run's scratch directory, which is removed when the run ends.
func (c config) spanFile() string {
	return filepath.Join(filepath.Dir(c.work), "spans", c.workload+"-seed"+strconv.FormatUint(c.seed, 10)+".jsonl")
}
