package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"datalife/internal/advisor"
	"datalife/internal/cpa"
	"datalife/internal/dfl"
	"datalife/internal/iotrace"
	"datalife/internal/patterns"
	"datalife/internal/report"
	"datalife/internal/sankey"
	"datalife/internal/workflows"
)

// belle2Spec is the default Belle II Monte Carlo campaign (240 tasks × 16
// fragmented draws from a shared pool) with the seed varying the draws.
func belle2Spec(seed uint64) func() *workflows.Spec {
	return func() *workflows.Spec {
		p := workflows.DefaultBelle2()
		p.Seed = seed
		return workflows.Belle2(p)
	}
}

// wideSpec is a seeded layered DAG, 30 layers × 60 tasks with fan-in up to
// 4, whose small files keep the simulator cheap so the analysis and render
// layers dominate.
func wideSpec(seed uint64) func() *workflows.Spec {
	return func() *workflows.Spec {
		return layeredDAG(dagParams{seed: seed, layers: 30, width: 60, fanIn: 4,
			maxFileBytes: 64 << 10, maxCompute: 2})
	}
}

func runBelle2(cfg config) (outcome, error) { return runBatch(cfg, belle2Spec(cfg.seed)) }
func runWide(cfg config) (outcome, error)   { return runBatch(cfg, wideSpec(cfg.seed)) }

// rendered is one op's output and the facts the correctness checks compare.
type rendered struct {
	col    *iotrace.Collector
	fp     uint64
	digest [sha256.Size]byte
	verts  int
	edges  int
	// query is the time from a finished measurement to the advisor's
	// answer: dfl.Build through advisor.Advise.
	query time.Duration
}

// reportOp is one batch op: the sequence `datalife -advise -html -svg` runs,
// from spec generation through the rendered HTML report, with every output
// written to memory instead of files.
func reportOp(gen func() *workflows.Spec, tr *tracer, op int) (rendered, error) {
	root := tr.begin("op", op, -1)
	defer tr.end(root)
	s := tr.begin("workflows.spec", op, root)
	spec := gen()
	tr.end(s)
	s = tr.begin("iotrace.collect", op, root)
	col, res, err := workflows.RunCollector(spec, workflows.RunOptions{})
	tr.end(s)
	if err != nil {
		return rendered{}, err
	}
	return analyze(col, spec.Name, res.Makespan, tr, op, root)
}

// analyze is the part of the CLI after measurement: build the DFL graph, run
// the critical-path, pattern and advisor analyses, and render the text,
// Sankey SVG and HTML report. Outputs are hashed together for the
// correctness check.
func analyze(col *iotrace.Collector, title string, makespan float64, tr *tracer, op, root int) (rendered, error) {
	const top, nodes = 10, 4
	var out bytes.Buffer
	// The collector is off from dfl.Build through advisor.Advise, which
	// allocate only a few MB. Otherwise a cycle that measurement started
	// lands in the query on some ops and not others, and the query's median
	// jumps between the two. The garbage is collected later in the op, whose
	// time still includes it.
	gcPercent := debug.SetGCPercent(-1)
	q0 := now()

	s := tr.begin("dfl.build", op, root)
	g := dfl.Build(col)
	tr.end(s)
	fmt.Fprintf(&out, "execution: makespan %.1fs; DFL-DAG: %d vertices, %d edges, %.2f GB total flow\n\n",
		makespan, g.NumVertices(), g.NumEdges(), float64(g.TotalVolume())/(1<<30))

	s = tr.begin("cpa.path", op, root)
	path, err := cpa.CriticalPath(g, cpa.ByVolume, nil)
	if err != nil {
		tr.end(s)
		debug.SetGCPercent(gcPercent)
		return rendered{}, err
	}
	cat := cpa.DFLCaterpillar(g, path)
	br, jn := cpa.GroupedBranchJoin(g, nil)
	taskKind := dfl.TaskVertex
	bns, bnErr := cpa.Bottlenecks(g, cpa.ByVolume, cpa.ByTaskTime, 5, &taskKind)
	tr.end(s)
	fmt.Fprintf(&out, "critical path (volume): %d vertices, weight %.4g; workflow has %d branches, %d joins\n",
		len(path.Vertices), path.Weight, br, jn)
	fmt.Fprintf(&out, "DFL caterpillar: %d spine + %d legs + %d extended producers\n\n",
		len(cat.Spine.Vertices), len(cat.Legs), len(cat.Extended))
	if bnErr == nil {
		for i, b := range bns {
			fmt.Fprintf(&out, "%2d. %-40s slack %.4g\n", i+1, b.ID.Name, b.Slack)
		}
	}

	s = tr.begin("patterns.analyze", op, root)
	opps := patterns.Analyze(g, cat, patterns.Config{})
	out.WriteString(patterns.Report("opportunities on the caterpillar (ranked):", opps, top))
	benefits := patterns.EstimateBenefits(g, opps, patterns.DefaultEnvelope())
	if len(benefits) > 0 {
		out.WriteString(patterns.BenefitReport(benefits, top))
	}
	ranking := patterns.RankProducerConsumerByVolume(g)
	out.WriteString(patterns.Table("producer-consumer relations by volume:", ranking, top))
	tr.end(s)

	s = tr.begin("advisor.advise", op, root)
	plan, err := advisor.Advise(g, advisor.Config{Nodes: nodes})
	if err != nil {
		tr.end(s)
		debug.SetGCPercent(gcPercent)
		return rendered{}, err
	}
	out.WriteString(plan.Report(top))
	fmt.Fprintf(&out, "plan locality score: %.0f%% of flow volume becomes node-local\n\n",
		100*plan.LocalityScore(g))
	tr.end(s)
	query := since(q0)
	debug.SetGCPercent(gcPercent)

	s = tr.begin("dfl.template", op, root)
	display := g
	if tpl := dfl.Template(g, nil); tpl.IsDAG() {
		display = tpl
	}
	tr.end(s)

	s = tr.begin("sankey.svg", op, root)
	if dPath, err := cpa.CriticalPath(display, cpa.ByVolume, nil); err == nil {
		txt, err := sankey.Text(display, sankey.Options{Title: "Sankey (volume-weighted):", Critical: dPath})
		if err != nil {
			tr.end(s)
			return rendered{}, err
		}
		out.WriteString(txt)
	}
	dPath, _ := cpa.CriticalPath(display, cpa.ByVolume, nil)
	svg, err := sankey.SVG(display, sankey.Options{Title: title, Critical: dPath})
	tr.end(s)
	if err != nil {
		return rendered{}, err
	}

	s = tr.begin("report.write", op, root)
	var html bytes.Buffer
	err = report.Write(&html, report.Input{
		Title: title, Graph: g, Display: display, Critical: dPath,
		Caterpillar: cat, Opportunities: opps, Ranking: ranking,
		Benefits: benefits, Plan: plan, MakespanS: makespan, Limit: top,
	})
	tr.end(s)
	if err != nil {
		return rendered{}, err
	}

	h := sha256.New()
	h.Write(out.Bytes())
	h.Write([]byte(svg))
	h.Write(html.Bytes())
	r := rendered{col: col, fp: g.Fingerprint(), verts: g.NumVertices(), edges: g.NumEdges(), query: query}
	h.Sum(r.digest[:0])
	return r, nil
}

// roundTripFP is the fingerprint of the graph rebuilt from the collector's
// saved state: SaveJSON → LoadJSON → BuildSaved.
func roundTripFP(col *iotrace.Collector) (uint64, error) {
	var buf bytes.Buffer
	if err := col.SaveJSON(&buf); err != nil {
		return 0, err
	}
	st, err := iotrace.LoadJSON(&buf)
	if err != nil {
		return 0, err
	}
	return dfl.BuildSaved(st).Fingerprint(), nil
}

// trackedBlocks sums the histogram blocks every flow of col tracks.
func trackedBlocks(col *iotrace.Collector) int {
	n := 0
	for _, fl := range col.Flows() {
		n += fl.TrackedBlocks()
	}
	return n
}

// runBatch runs a batch workload. Set-up generates the spec and runs the
// reference op (repeated cfg.setups times for the setup_s median); the timed
// phase then repeats the op until the window closes. Every op must reproduce
// the reference fingerprint and output hash. A traced run alternates traced
// and untraced ops so the tracing overhead is measured in the same process.
func runBatch(cfg config, gen func() *workflows.Spec) (outcome, error) {
	var setups []float64
	var ref rendered
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		t0 := now()
		r, err := reportOp(gen, nil, -1)
		d := since(t0)
		if err != nil {
			return outcome{}, fmt.Errorf("set-up: %w", err)
		}
		if i > 0 && (r.fp != ref.fp || r.digest != ref.digest) {
			return outcome{}, fmt.Errorf("set-up: reference ops disagree")
		}
		ref = r
		setups = append(setups, d.Seconds())
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer(true)
	}
	var tracedMS []float64
	attempted, failed := 0, 0
	last := ref
	tl := newTimeline()
	deadline := tl.start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; more(cfg, i, deadline); i++ {
		traced := cfg.trace && i%2 == 0
		var t *tracer
		if traced {
			t = tr
			// The engine alone, on the same spec, outside the op's span:
			// the op's collect span minus this is the measurement cost.
			spec := gen()
			s := tr.begin("sim.run", i, -1)
			_, err := workflows.RunBare(spec, workflows.StressOptions{})
			tr.end(s)
			if err != nil {
				attempted++
				failed++
				continue
			}
		}
		// Each op starts right after a collection, so the previous op's garbage
		// is not charged to it.
		runtime.GC()
		t0 := now()
		r, err := reportOp(gen, t, i)
		d := since(t0)
		attempted++
		if err != nil || r.fp != ref.fp || r.digest != ref.digest {
			failed++
			continue
		}
		if traced {
			tracedMS = append(tracedMS, ms(d))
		} else {
			tl.op(d)
			tl.query(r.query)
		}
		last = r
	}
	elapsed := since(tl.start)
	rss := peakRSSMB()

	attempted++ // the saved-state round trip
	if fp, err := roundTripFP(last.col); err != nil || fp != ref.fp {
		failed++
	}
	correct := failed == 0
	out := outcome{
		digest:  fmt.Sprintf("%016x-%x", ref.fp, ref.digest),
		samples: map[string]int{"op": len(tl.ops), "query": len(tl.queries), "setup": len(setups)},
	}
	out.res = result{Correct: correct, Attempted: attempted, Failed: failed}
	if !cfg.trace {
		out.res.Metrics = tl.metrics(elapsed, setups, rss)
		return out, nil
	}

	m := zeroLayers()
	ls := tr.layers()
	for _, name := range []string{"workflows.spec", "sim.run", "dfl.build", "cpa.path",
		"patterns.analyze", "advisor.advise", "dfl.template", "sankey.svg", "report.write"} {
		if l := ls[name]; l != nil {
			m[name+"_ms"] = metric{median(l.ms), "ms"}
			m[name+".allocs"] = metric{median(l.allocs), "count"}
		}
	}
	// Measurement cost: the collecting run minus the bare engine, per op.
	if c, b := ls["iotrace.collect"], ls["sim.run"]; c != nil && b != nil && len(c.ms) == len(b.ms) {
		dMS := make([]float64, len(c.ms))
		dAllocs := make([]float64, len(c.ms))
		for i := range c.ms {
			dMS[i] = c.ms[i] - b.ms[i]
			dAllocs[i] = c.allocs[i] - b.allocs[i]
		}
		m["iotrace.collect_ms"] = metric{median(dMS), "ms"}
		m["iotrace.collect.allocs"] = metric{median(dAllocs), "count"}
	}
	m["blockstats.tracked_blocks"] = metric{float64(trackedBlocks(last.col)), "count"}
	m["iotrace.flows"] = metric{float64(last.col.NumFlows()), "count"}
	m["dfl.vertices"] = metric{float64(ref.verts), "count"}
	m["dfl.edges"] = metric{float64(ref.edges), "count"}
	if u := median(latencies(tl.ops)); u > 0 {
		m["trace.overhead_pct"] = metric{100 * (median(tracedMS) - u) / u, "%"}
	}
	out.res.Metrics = m
	out.samples["traced_op"] = len(tracedMS)
	return out, tr.write(cfg.spanFile())
}

// more reports whether the timed loop runs op i: a fixed op count when
// cfg.ops is set, otherwise until the deadline.
func more(cfg config, i int, deadline time.Time) bool {
	if cfg.ops > 0 {
		return i < cfg.ops
	}
	return now().Before(deadline)
}
