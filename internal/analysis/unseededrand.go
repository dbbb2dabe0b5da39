package analysis

import (
	"go/ast"
)

// UnseededRand forbids the auto-seeded math/rand global source everywhere:
// fault schedules, workflow generators, and placement decisions must derive
// every random draw from the run seed (the discipline faults.Schedule sets
// with its pure SplitMix64 hashing), or replays stop being bit-identical.
// Explicitly seeded generators (rand.New(rand.NewSource(seed))) are fine —
// determinism comes from the seed — so only package-level draws and Seed
// calls are flagged, plus cross-package calls into functions whose facts say
// they draw from the global source.
var UnseededRand = &Analyzer{
	Name: "unseededrand",
	Doc:  "no auto-seeded math/rand; derive randomness from the run seed",
	Run:  runUnseededRand,
}

func runUnseededRand(pass *Pass) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			if key := declKey(pass.Info, decl); key != "" && pass.Facts.funcAllowed(key, pass.Analyzer.Name) {
				continue
			}
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pass.Info, call)
				if fn == nil {
					return true
				}
				if isGlobalRand(fn) {
					pass.Reportf(call.Pos(),
						"auto-seeded rand.%s breaks seeded replay; draw from an explicitly seeded source derived from the run seed (cf. faults.Schedule's SplitMix64)",
						fn.Name())
					return true
				}
				if pkg := funcPkgPath(fn); moduleInternal(pkg) && fn.Pkg() != pass.Pkg {
					if ff := pass.Facts.FuncOf(fn); ff != nil && ff.GlobalRand {
						pass.Reportf(call.Pos(),
							"call to %s draws from the auto-seeded global rand (via %s); replays will diverge",
							FuncKey(fn), ff.GlobalRandVia)
					}
				}
				return true
			})
		}
	}
}
