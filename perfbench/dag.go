package main

import (
	"fmt"

	"datalife/internal/sim"
	"datalife/internal/workflows"
)

// dagParams shapes a seeded layered DAG: every task reads 1..fanIn outputs
// of the previous layer (layer 0 reads shared inputs) and writes one output.
type dagParams struct {
	seed          uint64
	layers, width int
	fanIn         int
	maxFileBytes  int64
	maxCompute    float64
}

// layeredDAG generates the same shape as workflows.Random, but draws every
// value from an independent splitmix64 stream. workflows.Random draws from
// unfinalized FNV-1a hashes of similar strings, whose high bits correlate
// across tasks, so its DAG size swings by more than ±10% from seed to seed;
// independent draws keep one seed's op comparable to another's.
func layeredDAG(p dagParams) *workflows.Spec {
	state := p.seed
	draw := func() float64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / float64(1<<53)
	}
	size := func() int64 { return int64(draw()*float64(p.maxFileBytes)) + 1<<10 }
	spec := &workflows.Spec{Name: "layered", Workload: &sim.Workload{Name: "layered"}}
	sizes := make(map[string]int64)
	in := func(t int) string { return fmt.Sprintf("dag/in%d.dat", t) }
	out := func(l, t int) string { return fmt.Sprintf("dag/l%d.t%d.dat", l, t) }
	for t := 0; t < p.width; t++ {
		spec.Inputs = append(spec.Inputs, workflows.InputFile{Path: in(t), Size: size()})
		sizes[in(t)] = spec.Inputs[t].Size
	}
	for l := 0; l < p.layers; l++ {
		for t := 0; t < p.width; t++ {
			task := &sim.Task{Name: fmt.Sprintf("dag#l%d.t%d", l, t), Stage: fmt.Sprintf("layer%d", l)}
			fan := 1 + int(draw()*float64(p.fanIn))
			for k := 0; k < fan; k++ {
				path := in((t + k) % p.width)
				if l > 0 {
					up := (t + k*7) % p.width
					path = out(l-1, up)
					task.Deps = append(task.Deps, fmt.Sprintf("dag#l%d.t%d", l-1, up))
				}
				n := int64(draw()*float64(sizes[path])) + 1
				task.Script = append(task.Script, sim.Open(path), sim.Read(path, n, 1<<20), sim.Close(path))
			}
			task.Script = append(task.Script, sim.Compute(draw()*p.maxCompute))
			o := out(l, t)
			sizes[o] = size()
			task.Script = append(task.Script, sim.Open(o), sim.Write(o, sizes[o], 1<<20), sim.Close(o))
			spec.Workload.Tasks = append(spec.Workload.Tasks, task)
		}
	}
	return spec
}
