package dfl

import (
	"datalife/internal/blockstats"
	"datalife/internal/iotrace"
)

// Build constructs a DFL-DAG from collector measurements (§4.1): since each
// histogram captures one or two flow relations, the graph is built simply by
// connecting all edges. Each task instance is a distinct vertex, so the
// result is acyclic.
func Build(col *iotrace.Collector) *Graph {
	g := New()
	for _, ti := range col.Tasks() {
		v := g.AddTask(ti.Name)
		v.Task.Lifetime = ti.Lifetime()
	}
	for _, fl := range col.Flows() {
		addFlow(g, fl)
	}
	return g
}

// addFlow converts one task-file histogram into its producer and/or consumer
// edges and folds its aggregates into the endpoint vertices.
func addFlow(g *Graph, fl *blockstats.FlowStat) {
	task := g.AddTask(fl.Task)
	data := g.AddData(fl.File)

	if fl.FileSize() > data.Data.Size {
		data.Data.Size = fl.FileSize()
	}
	if lt := fl.FileLifetime(); lt > data.Data.Lifetime {
		data.Data.Lifetime = lt
	}

	task.Task.ReadOps += fl.ReadOps
	task.Task.WriteOps += fl.WriteOps
	task.Task.InVolume += fl.ReadBytes
	task.Task.OutVolume += fl.WriteBytes
	task.Task.ReadLatency += fl.ReadTime
	task.Task.WriteLatency += fl.WriteTime

	if fl.ReadOps > 0 {
		// Consumer relation: data → task.
		mustEdge(g, data.ID, task.ID, Consumer, FlowProps{
			Ops:           fl.ReadOps,
			Volume:        fl.ReadBytes,
			Footprint:     fl.Footprint(blockstats.Read),
			Latency:       fl.ReadTime,
			MeanDistance:  fl.MeanDistance(),
			ZeroDistFrac:  fl.ZeroDistanceFraction(),
			SmallDistFrac: fl.SmallDistanceFraction(),
		})
	}
	if fl.WriteOps > 0 {
		// Producer relation: task → data.
		mustEdge(g, task.ID, data.ID, Producer, FlowProps{
			Ops:           fl.WriteOps,
			Volume:        fl.WriteBytes,
			Footprint:     fl.Footprint(blockstats.Write),
			Latency:       fl.WriteTime,
			MeanDistance:  fl.MeanDistance(),
			ZeroDistFrac:  fl.ZeroDistanceFraction(),
			SmallDistFrac: fl.SmallDistanceFraction(),
		})
	}
}

// mustEdge adds an edge whose direction is known correct by construction.
func mustEdge(g *Graph, src, dst ID, kind EdgeKind, p FlowProps) {
	if _, err := g.AddEdge(src, dst, kind, p); err != nil {
		panic(err) // unreachable: directions are fixed above
	}
}

// BuildSaved reconstructs a DFL-DAG from a persisted measurement database
// (iotrace.SaveJSON/LoadJSON) — the analyze-later path the paper's artifact
// uses with its stored I/O state.
func BuildSaved(st *iotrace.SavedState) *Graph {
	g := New()
	for i := range st.Tasks {
		ti := &st.Tasks[i]
		v := g.AddTask(ti.Name)
		v.Task.Lifetime = ti.End - ti.Start
	}
	for _, sf := range st.Flows {
		task := g.AddTask(sf.Task)
		data := g.AddData(sf.File)
		if sf.FileSize > data.Data.Size {
			data.Data.Size = sf.FileSize
		}
		if sf.FileLifetime > data.Data.Lifetime {
			data.Data.Lifetime = sf.FileLifetime
		}
		task.Task.ReadOps += sf.ReadOps
		task.Task.WriteOps += sf.WriteOps
		task.Task.InVolume += sf.ReadBytes
		task.Task.OutVolume += sf.WriteBytes
		task.Task.ReadLatency += sf.ReadTime
		task.Task.WriteLatency += sf.WriteTime
		if sf.ReadOps > 0 {
			mustEdge(g, data.ID, task.ID, Consumer, FlowProps{
				Ops: sf.ReadOps, Volume: sf.ReadBytes, Footprint: sf.ReadFootprint,
				Latency: sf.ReadTime, MeanDistance: sf.MeanDistance,
				ZeroDistFrac: sf.ZeroDistFrac, SmallDistFrac: sf.SmallDistFrac,
			})
		}
		if sf.WriteOps > 0 {
			mustEdge(g, task.ID, data.ID, Producer, FlowProps{
				Ops: sf.WriteOps, Volume: sf.WriteBytes, Footprint: sf.WriteFootprint,
				Latency: sf.WriteTime, MeanDistance: sf.MeanDistance,
				ZeroDistFrac: sf.ZeroDistFrac, SmallDistFrac: sf.SmallDistFrac,
			})
		}
	}
	return g
}
