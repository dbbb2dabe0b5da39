package dfl

import "datalife/internal/iotrace"

// Build constructs a DFL-DAG from collector measurements (§4.1): since each
// histogram captures one or two flow relations, the graph is built simply by
// connecting all edges. Each task instance is a distinct vertex, so the
// result is acyclic.
func Build(col *iotrace.Collector) *Graph {
	g := New()
	for _, ti := range col.Tasks() {
		g.AddTask(ti.Name).Task.Lifetime = ti.Lifetime()
	}
	for _, fl := range col.Flows() {
		sf := iotrace.Summarize(fl)
		addFlow(g, &sf)
	}
	return g
}

// BuildSaved reconstructs a DFL-DAG from a persisted measurement database
// (iotrace.SaveJSON/LoadJSON) — the analyze-later path the paper's artifact
// uses with its stored I/O state.
func BuildSaved(st *iotrace.SavedState) *Graph {
	g := New()
	for i := range st.Tasks {
		g.AddTask(st.Tasks[i].Name).Task.Lifetime = st.Tasks[i].Lifetime()
	}
	for i := range st.Flows {
		addFlow(g, &st.Flows[i])
	}
	return g
}

// addFlow adds one task-file flow's consumer and/or producer edges, in that
// order, and folds its aggregates into the endpoint vertices.
func addFlow(g *Graph, sf *iotrace.SavedFlow) {
	g.AddTask(sf.Task).Task.AddFlow(sf)
	g.AddData(sf.File).Data.AddFlow(sf)
	for _, kind := range [...]EdgeKind{Consumer, Producer} {
		if src, dst, p, ok := FlowEdge(sf, kind); ok {
			mustEdge(g, src, dst, kind, p)
		}
	}
}

// mustEdge adds an edge whose direction is known correct by construction.
func mustEdge(g *Graph, src, dst ID, kind EdgeKind, p FlowProps) {
	if _, err := g.AddEdge(src, dst, kind, p); err != nil {
		panic(err) // unreachable: directions are fixed by the caller
	}
}

// FlowEdge derives one edge of a task-file flow: the consumer edge (data →
// task) from its reads, or the producer edge (task → data) from its writes.
// ok is false when the flow has no ops in that direction, and so no edge.
func FlowEdge(sf *iotrace.SavedFlow, kind EdgeKind) (src, dst ID, p FlowProps, ok bool) {
	p = FlowProps{
		MeanDistance:  sf.MeanDistance,
		ZeroDistFrac:  sf.ZeroDistFrac,
		SmallDistFrac: sf.SmallDistFrac,
	}
	task, data := TaskID(sf.Task), DataID(sf.File)
	if kind == Consumer {
		p.Ops, p.Volume, p.Footprint, p.Latency = sf.ReadOps, sf.ReadBytes, sf.ReadFootprint, sf.ReadTime
		return data, task, p, sf.ReadOps > 0
	}
	p.Ops, p.Volume, p.Footprint, p.Latency = sf.WriteOps, sf.WriteBytes, sf.WriteFootprint, sf.WriteTime
	return task, data, p, sf.WriteOps > 0
}

// AddFlow folds one flow of the task into its properties: operation counts,
// volumes and blocking latencies add up.
func (p *TaskProps) AddFlow(sf *iotrace.SavedFlow) {
	p.ReadOps += sf.ReadOps
	p.WriteOps += sf.WriteOps
	p.InVolume += sf.ReadBytes
	p.OutVolume += sf.WriteBytes
	p.ReadLatency += sf.ReadTime
	p.WriteLatency += sf.WriteTime
}

// AddFlow folds one flow of the file into its properties: size and lifetime
// are maxima over the flows.
func (p *DataProps) AddFlow(sf *iotrace.SavedFlow) {
	p.Size = max(p.Size, sf.FileSize)
	p.Lifetime = max(p.Lifetime, sf.FileLifetime)
}
