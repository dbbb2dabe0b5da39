package main

import (
	"sort"
	"time"
)

// The timed phase is cut into windows equal parts and the metrics pool the
// samples of the kept parts with the highest op throughput. Interference on
// a shared host comes and goes within seconds and only ever slows the
// program down: a slowdown confined to two sixths of a run does not move any
// metric, and the percentiles still rest on two thirds of the samples.
const windows, kept = 6, 4

// sample is one timed op.
type sample struct {
	at  time.Duration // completion, since the timed phase began
	cpu time.Duration // process CPU time used since the timed phase began
	ms  float64       // latency
}

// timeline collects a run's untraced samples: the workload's primary ops and
// its queries.
type timeline struct {
	start   time.Time
	cpu0    time.Duration
	ops     []sample
	queries []sample
}

func newTimeline() *timeline { return &timeline{start: now(), cpu0: cpuTime()} }

func (tl *timeline) op(d time.Duration) {
	tl.ops = append(tl.ops, sample{since(tl.start), cpuTime() - tl.cpu0, ms(d)})
}

func (tl *timeline) query(d time.Duration) {
	tl.queries = append(tl.queries, sample{at: since(tl.start), ms: ms(d)})
}

// split groups samples, in completion order, into the windows of [0, total).
func split(xs []sample, total time.Duration) [][]sample {
	out := make([][]sample, windows)
	for _, x := range xs {
		w := int(int64(x.at) * windows / int64(max(total, 1)))
		out[min(w, windows-1)] = append(out[min(w, windows-1)], x)
	}
	return out
}

// part is one window: its samples, and the wall and CPU time between the
// last op completions of the previous window and this one, so each part
// covers whole ops.
type part struct {
	ops, queries []sample
	dur, cpu     time.Duration
}

func (p part) rate() float64 {
	if p.dur <= 0 {
		return 0
	}
	return float64(len(p.ops)) / p.dur.Seconds()
}

// metrics returns every end-to-end metric over the kept windows.
func (tl *timeline) metrics(total time.Duration, setups []float64, rssMB float64) map[string]metric {
	ow, qw := split(tl.ops, total), split(tl.queries, total)
	parts := make([]part, windows)
	prev := sample{}
	for i := range parts {
		parts[i].queries = qw[i]
		if len(ow[i]) == 0 {
			continue
		}
		last := ow[i][len(ow[i])-1]
		parts[i].ops, parts[i].dur, parts[i].cpu = ow[i], last.at-prev.at, last.cpu-prev.cpu
		prev = last
	}
	sort.SliceStable(parts, func(a, b int) bool { return parts[a].rate() > parts[b].rate() })
	var ops, queries []float64
	var dur, cpu time.Duration
	for _, p := range parts[:kept] {
		ops = append(ops, latencies(p.ops)...)
		queries = append(queries, latencies(p.queries)...)
		dur += p.dur
		cpu += p.cpu
	}
	n := float64(max(len(ops), 1))
	return map[string]metric{
		"setup_s":       {median(setups), "s"},
		"op_p50_ms":     {percentile(ops, 0.5), "ms"},
		"op_p90_ms":     {percentile(ops, 0.9), "ms"},
		"ops_per_s":     {float64(len(ops)) / max(dur.Seconds(), 1e-9), "1/s"},
		"query_p50_ms":  {percentile(queries, 0.5), "ms"},
		"query_p90_ms":  {percentile(queries, 0.9), "ms"},
		"cpu_ms_per_op": {ms(cpu) / n, "ms"},
		"peak_rss_mb":   {rssMB, "MB"},
	}
}

func latencies(xs []sample) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.ms
	}
	return out
}

// percentile returns the q-quantile (0..1) of xs by the nearest-rank rule.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
