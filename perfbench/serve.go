package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"datalife/internal/blockstats"
	"datalife/internal/dfl"
	"datalife/internal/iotrace"
	"datalife/internal/journal"
	"datalife/internal/serve"
	"datalife/internal/sim"
	"datalife/internal/workflows"
)

const (
	// batchEvents is the number of trace events per Send.
	batchEvents = 64
	// queryEvery is the number of batches between fresh queries.
	queryEvery = 16
	// prefixCycles is how many passes over the DAG are journaled before the
	// timed restart, so recovery replays a realistic backlog.
	prefixCycles = 4
	// replayBatches bounds the journal payloads re-appended in a traced run
	// to time journal.Writer.Append and File.Sync on their own.
	replayBatches = 1500
	session       = "bench"
	// fsync is off in the timed loop. On a shared virtual disk fsync latency
	// drifts for seconds at a time: with it on, the median ack swung between
	// 0.25 and 0.47 ms across same-code runs, against ±3% with it off. Its
	// cost is measured on its own in traced runs (journal.fsync_us), by
	// replaying the session's payloads through Append + Sync on the same disk.
	fsync        = false
	streamLayers = 20
	streamWidth  = 40
)

var queryKinds = []string{"summary", "cpa", "patterns", "advisor"}

// stream is an endless trace-event stream: one seeded layered DAG's events
// repeated cycle after cycle with shifted timestamps. Task and file names
// repeat, so the session's graph stays the DAG's size however long the run
// is, while every cycle adds volume to the same flows.
type stream struct {
	cycle []iotrace.TraceEvent
	span  float64
}

// streamSpec is the DAG the serve stream traces: 20 layers × 40 tasks with
// fan-in up to 4 and layer-0 inputs shared between neighbours.
func streamSpec(seed uint64) *workflows.Spec {
	return layeredDAG(dagParams{seed: seed, layers: streamLayers, width: streamWidth, fanIn: 4,
		maxFileBytes: 4 << 20, maxCompute: 2})
}

// newStream converts a spec's task scripts into the trace events a tracer
// would report for them, with synthetic times: each layer starts 10 s after
// the previous one, opens and closes take 10 ms, and each chunk 1 ms.
func newStream(spec *workflows.Spec) *stream {
	sizes := make(map[string]int64, len(spec.Inputs))
	for _, in := range spec.Inputs {
		sizes[in.Path] = in.Size
	}
	var evs []iotrace.TraceEvent
	end := 0.0
	for i, task := range spec.Workload.Tasks {
		t := float64(i/streamWidth) * 10
		ev := func(e iotrace.TraceEvent) {
			e.Task = task.Name
			e.T = t
			evs = append(evs, e)
		}
		ev(iotrace.TraceEvent{Kind: iotrace.EvTaskStart})
		for _, op := range task.Script {
			switch op.Kind {
			case sim.OpOpen:
				t += 0.01
				ev(iotrace.TraceEvent{Kind: iotrace.EvOpen, File: op.Path, FileSize: sizes[op.Path]})
			case sim.OpClose:
				t += 0.01
				ev(iotrace.TraceEvent{Kind: iotrace.EvClose, File: op.Path})
			case sim.OpRead, sim.OpWrite:
				kind := iotrace.EvReadChunks
				if op.Kind == sim.OpWrite {
					kind = iotrace.EvWriteChunks
					sizes[op.Path] = op.Bytes
				}
				rep := max(op.Repeat, 1)
				ev(iotrace.TraceEvent{Kind: kind, File: op.Path, FileSize: sizes[op.Path],
					Off: max(op.Offset, 0), Len: op.Bytes, Chunk: op.Chunk, Rep: rep, Dt: 0.001})
				t += 0.001 * float64((op.Bytes+op.Chunk-1)/op.Chunk*int64(rep))
			case sim.OpCompute:
				t += op.Seconds
			}
		}
		ev(iotrace.TraceEvent{Kind: iotrace.EvTaskEnd})
		end = max(end, t)
	}
	return &stream{cycle: evs, span: end + 10}
}

// batch returns the i-th batch of the endless stream.
func (s *stream) batch(i int) []iotrace.TraceEvent {
	out := make([]iotrace.TraceEvent, batchEvents)
	for j := range out {
		n := i*batchEvents + j
		ev := s.cycle[n%len(s.cycle)]
		ev.T += float64(n/len(s.cycle)) * s.span
		out[j] = ev
	}
	return out
}

// service is one in-process server on a loopback port plus the benchmark's
// single client connection to it.
type service struct {
	srv     *serve.Server
	cl      *serve.Client
	done    chan error
	stopped bool
}

// startService starts a server over dir and attaches the client, which on a
// journaled session replays the journal before the welcome.
func startService(dir string) (*service, time.Duration, error) {
	srv, err := serve.NewServer(serve.Config{Dir: dir, NoSync: !fsync})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	sv := &service{srv: srv, done: make(chan error, 1)}
	go func() { sv.done <- srv.Serve(ln) }()
	t0 := now()
	cl, err := serve.Dial(serve.ClientConfig{Addr: ln.Addr().String(), Session: session})
	attach := since(t0)
	if err != nil {
		sv.stop()
		return nil, 0, err
	}
	sv.cl = cl
	return sv, attach, nil
}

// stop closes the client and the server and waits for Serve to return. It
// is safe to call more than once.
func (sv *service) stop() {
	if sv.stopped {
		return
	}
	sv.stopped = true
	if sv.cl != nil {
		sv.cl.Close()
	}
	sv.srv.Close()
	<-sv.done
}

// runServe runs the serve-mixed workload: a closed loop on one connection
// sending journaled 64-event batches and, every queryEvery batches, a fresh
// query (MinSeq at the durable frontier) rotating through summary, cpa,
// patterns and advisor.
func runServe(cfg config) (outcome, error) {
	var specMS []float64
	var spec *workflows.Spec
	for i := 0; i < cfg.setups; i++ {
		t0 := now()
		spec = streamSpec(cfg.seed)
		specMS = append(specMS, ms(since(t0)))
	}
	st := newStream(spec)
	prefix := prefixCycles * len(st.cycle) / batchEvents
	dir := filepath.Join(cfg.work, "journal")

	// Untimed: journal the prefix.
	sv, _, err := startService(dir)
	if err != nil {
		return outcome{}, fmt.Errorf("set-up: %w", err)
	}
	for i := 0; i < prefix; i++ {
		if err := sv.cl.Send(st.batch(i)); err != nil {
			sv.stop()
			return outcome{}, fmt.Errorf("set-up: journaling prefix: %w", err)
		}
	}
	sv.stop()

	// Timed restarts: server start plus the session recovery replay.
	var setups, recovers []float64
	for i := 0; i < cfg.setups; i++ {
		t0 := now()
		s, attach, err := startService(dir)
		d := since(t0)
		if err != nil {
			return outcome{}, fmt.Errorf("set-up: restart: %w", err)
		}
		if want := uint64(prefix * batchEvents); s.cl.NextSeq() != want || !s.cl.Resumed {
			s.stop()
			return outcome{}, fmt.Errorf("set-up: restart resumed at %d, want %d", s.cl.NextSeq(), want)
		}
		setups = append(setups, d.Seconds())
		recovers = append(recovers, ms(attach))
		if i < cfg.setups-1 {
			s.stop()
		} else {
			sv = s
		}
	}
	defer sv.stop()
	cl := sv.cl

	var tr *tracer
	if cfg.trace {
		tr = newTracer(false)
	}
	var tracedAckMS, syncWait []float64
	fresh := map[string][]float64{}
	warm := map[string][]float64{}
	rejects := map[string]int{}
	answers, freshAnswers := 0, 0
	attempted, failed := 0, 0
	fail := func(err error) {
		failed++
		var se *serve.SessionError
		if errors.As(err, &se) {
			rejects[se.Kind.String()]++
		}
	}
	next := prefix
	tl := newTimeline()
	deadline := tl.start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for b := 0; more(cfg, b, deadline); b++ {
		round := b / queryEvery
		// Traced and untraced blocks alternate every four rounds, so each
		// query kind appears in both.
		traced := cfg.trace && (round/len(queryKinds))%2 == 0
		evs := st.batch(next)
		s := -1
		if traced {
			s = tr.begin("serve.ack", b, -1)
		}
		t0 := now()
		err := cl.Send(evs)
		d := since(t0)
		if traced {
			tr.end(s)
		}
		attempted++
		if err != nil {
			fail(err)
			continue
		}
		next++
		if traced {
			tracedAckMS = append(tracedAckMS, ms(d))
		} else {
			tl.op(d)
		}
		if b%queryEvery != queryEvery-1 {
			continue
		}
		kind := queryKinds[round%len(queryKinds)]
		if traced {
			s = tr.begin("serve.query_fresh."+kind, b, -1)
		}
		t0 = now()
		res, err := cl.Query(kind, 10, cl.Durable())
		d = since(t0)
		if traced {
			tr.end(s)
		}
		attempted++
		if err != nil {
			fail(err)
			continue
		}
		answers++
		if !res.Stale {
			freshAnswers++
		}
		tl.query(d)
		if !traced {
			continue
		}
		// The same query again on the now-synced graph: the difference is
		// the time spent waiting for the applier and the graph sync.
		s = tr.begin("serve.query_warm."+kind, b, -1)
		t0 = now()
		_, err = cl.Query(kind, 10, cl.Durable())
		w := since(t0)
		tr.end(s)
		attempted++
		if err != nil {
			fail(err)
			continue
		}
		fresh[kind] = append(fresh[kind], ms(d))
		warm[kind] = append(warm[kind], ms(w))
		syncWait = append(syncWait, ms(d-w))
	}
	elapsed := since(tl.start)
	rss := peakRSSMB()

	// Correctness: the served summary fingerprint must equal dfl.Build over
	// a collector that applied the same events in-process.
	attempted++ // the final summary
	served, applied, sumErr := summaryFingerprint(cl)
	if sumErr != nil {
		fail(sumErr)
	}
	col, err := iotrace.NewCollector(blockstats.DefaultConfig())
	if err != nil {
		return outcome{}, err
	}
	var applyUS []float64
	for i := 0; i < next; i++ {
		evs := st.batch(i)
		t0 := now()
		for _, ev := range evs {
			if err := col.ApplyEvent(ev); err != nil {
				return outcome{}, fmt.Errorf("in-process apply: %w", err)
			}
		}
		applyUS = append(applyUS, float64(since(t0))/1e3)
	}
	if sumErr == nil && (dfl.Build(col).Fingerprint() != served || applied != uint64(next*batchEvents)) {
		failed++
	}
	correct := failed == 0

	out := outcome{
		digest: fmt.Sprintf("%016x", served),
		samples: map[string]int{"ack": len(tl.ops), "query": len(tl.queries), "setup": len(setups),
			"batches": next - prefix},
	}
	out.res = result{Correct: correct, Attempted: attempted, Failed: failed}
	if !cfg.trace {
		out.res.Metrics = tl.metrics(elapsed, setups, rss)
		return out, nil
	}

	m := zeroLayers()
	m["workflows.spec_ms"] = metric{median(specMS), "ms"}
	m["serve.recover_ms"] = metric{median(recovers), "ms"}
	m["iotrace.apply_us"] = metric{median(applyUS), "us"}
	for _, k := range queryKinds {
		m["serve.query_fresh_ms."+k] = metric{median(fresh[k]), "ms"}
		m["serve.query_warm_ms."+k] = metric{median(warm[k]), "ms"}
	}
	m["serve.sync_wait_ms"] = metric{median(syncWait), "ms"}
	if answers > 0 {
		m["serve.fresh_ratio"] = metric{float64(freshAnswers) / float64(answers), "ratio"}
	}
	for k, n := range rejects {
		if _, ok := m["serve.rejects."+k]; ok {
			m["serve.rejects."+k] = metric{float64(n), "count"}
		}
	}
	if u := median(latencies(tl.ops)); u > 0 {
		m["trace.overhead_pct"] = metric{100 * (median(tracedAckMS) - u) / u, "%"}
	}
	sv.stop()
	appendUS, fsyncUS, err := replayJournal(dir, tr)
	if err != nil {
		return outcome{}, fmt.Errorf("journal replay: %w", err)
	}
	m["journal.append_us"] = metric{appendUS, "us"}
	m["journal.fsync_us"] = metric{fsyncUS, "us"}
	ackOther := 1e3*median(latencies(tl.ops)) - appendUS
	if fsync {
		ackOther -= fsyncUS
	}
	m["serve.ack_other_us"] = metric{ackOther, "us"}

	// The batch analysis layers on an equivalent dfl.Build of everything
	// the session holds.
	tr.allocs = true
	for rep := 0; rep < cfg.setups; rep++ {
		root := tr.begin("analysis", rep, -1)
		r, err := analyze(col, "serve-mixed", 0, tr, rep, root)
		tr.end(root)
		if err != nil {
			return outcome{}, fmt.Errorf("analysis: %w", err)
		}
		m["dfl.vertices"] = metric{float64(r.verts), "count"}
		m["dfl.edges"] = metric{float64(r.edges), "count"}
	}
	ls := tr.layers()
	for _, name := range []string{"dfl.build", "cpa.path", "patterns.analyze", "advisor.advise",
		"dfl.template", "sankey.svg", "report.write"} {
		m[name+"_ms"] = metric{median(ls[name].ms), "ms"}
		m[name+".allocs"] = metric{median(ls[name].allocs), "count"}
	}
	m["blockstats.tracked_blocks"] = metric{float64(trackedBlocks(col)), "count"}
	m["iotrace.flows"] = metric{float64(col.NumFlows()), "count"}
	out.res.Metrics = m
	return out, tr.write(cfg.spanFile())
}

// summaryFingerprint asks for a fully fresh summary and parses the graph
// fingerprint and applied-event count out of it.
func summaryFingerprint(cl *serve.Client) (uint64, uint64, error) {
	res, err := cl.Query("summary", 10, cl.Durable())
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(res.Body, "\n") {
		if v, ok := strings.CutPrefix(line, "fingerprint "); ok {
			fp, err := strconv.ParseUint(strings.TrimPrefix(v, "0x"), 16, 64)
			return fp, res.Applied, err
		}
	}
	return 0, 0, fmt.Errorf("no fingerprint in summary %q", res.Body)
}

// replayJournal re-appends the session journal's last payloads through
// journal.Writer.Append plus File.Sync into a fresh file in the same
// directory, timing the two calls separately. Returns their medians in µs.
func replayJournal(dir string, tr *tracer) (float64, float64, error) {
	src, err := os.Open(filepath.Join(dir, session+".journal"))
	if err != nil {
		return 0, 0, err
	}
	var payloads [][]byte
	sc := journal.NewScanner(src)
	for sc.Scan() {
		payloads = append(payloads, append([]byte(nil), sc.Bytes()...))
		if len(payloads) > replayBatches {
			payloads = payloads[1:]
		}
	}
	src.Close()
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	path := filepath.Join(dir, "replay.journal")
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	defer os.Remove(path)
	defer f.Close()
	jw := journal.NewWriter(f)
	var appendUS, fsyncUS []float64
	for i, p := range payloads {
		s := tr.begin("journal.append", i, -1)
		t0 := now()
		err := jw.Append(p)
		t1 := now()
		tr.end(s)
		if err != nil {
			return 0, 0, err
		}
		s = tr.begin("journal.fsync", i, -1)
		err = f.Sync()
		t2 := now()
		tr.end(s)
		if err != nil {
			return 0, 0, err
		}
		appendUS = append(appendUS, float64(t1.Sub(t0))/1e3)
		fsyncUS = append(fsyncUS, float64(t2.Sub(t1))/1e3)
	}
	return median(appendUS), median(fsyncUS), nil
}
