package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// criticalPkgs are the packages whose outputs must be bit-exact
// functions of their inputs — the property the workers=1 ≡ workers=8
// determinism suites pin at runtime. Determinism rejects the three
// classic ways that property dies: wall-clock reads, the process-global
// math/rand stream, and map iteration feeding ordered output.
var criticalPkgs = map[string]bool{
	"repro/internal/fm/search":   true,
	"repro/internal/workspan":    true,
	"repro/internal/fault":       true,
	"repro/internal/replay":      true,
	"repro/internal/noc":         true,
	"repro/internal/serve":       true,
	"repro/internal/store":       true,
	"repro/internal/obs/tracing": true,
	"repro/internal/cluster":     true,
	"repro/internal/clock":       true,
	"repro/internal/bounded":     true,
}

// randConstructors are the math/rand top-level functions that build
// seeded generators rather than drawing from the global stream; they
// are the only package-level rand functions Determinism allows.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// emitNames are method names that, called inside a map-range body, feed
// iteration-ordered data into output, a hash, or an encoder.
var emitNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteTo": true, "Fprint": true, "Fprintf": true, "Fprintln": true,
	"Encode": true, "Sum": true, "Sum32": true, "Sum64": true,
}

// Determinism enforces bit-exact reproducibility in the packages where
// the repo promises it. Three checks:
//
//  1. no time.Now / time.Since — wall-clock reads make results depend
//     on when they ran (observability-only timing must be annotated);
//  2. no global math/rand stream — only seeded *rand.Rand values built
//     by New/NewSource, so every random draw is a function of a seed;
//  3. no map iteration that appends to an outer slice without a later
//     sort of that slice, and no map iteration that writes output or
//     feeds a hash/encoder inside the loop body — Go randomizes map
//     order, so both patterns change output across runs.
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc: "determinism-critical packages must not read wall clocks, draw from the global " +
		"math/rand stream, or emit map-iteration-ordered data without sorting " +
		"(escape hatch: //lint:allow nondeterminism(reason))",
	Run: runDeterminism,
}

func runDeterminism(pass *analysis.Pass) (interface{}, error) {
	if !criticalPkgs[pass.Pkg.Path()] {
		return nil, nil
	}
	for _, file := range pass.Files {
		checkClockAndRand(pass, file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			sorts := collectSortCalls(pass, fn.Body)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if rng, ok := n.(*ast.RangeStmt); ok && isMapType(pass, rng.X) {
					checkMapRangeBody(pass, file, rng, sorts)
				}
				return true
			})
		}
	}
	return nil, nil
}

func checkClockAndRand(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return true // methods (e.g. (*rand.Rand).Intn) are fine
		}
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Now" || fn.Name() == "Since" {
				if !allowed(pass.Fset, file, call.Pos(), "nondeterminism") {
					pass.Reportf(call.Pos(),
						"time.%s in determinism-critical package; results must not depend on the wall clock", fn.Name())
				}
			}
		case "math/rand", "math/rand/v2":
			if !randConstructors[fn.Name()] {
				if !allowed(pass.Fset, file, call.Pos(), "nondeterminism") {
					pass.Reportf(call.Pos(),
						"global rand.%s in determinism-critical package; draw from a seeded *rand.Rand", fn.Name())
				}
			}
		}
		return true
	})
}

// sortCall records one sort.X(...)/slices.X(...) call and the slice
// objects it was handed, for the collect-then-sort idiom.
type sortCall struct {
	pos  token.Pos
	args map[types.Object]bool
}

func collectSortCalls(pass *analysis.Pass, body *ast.BlockStmt) []sortCall {
	var out []sortCall
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkg, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName)
		if !ok {
			return true
		}
		if p := pkg.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		sc := sortCall{pos: call.Pos(), args: make(map[types.Object]bool)}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil {
					sc.args[obj] = true
				}
			}
		}
		out = append(out, sc)
		return true
	})
	return out
}

// checkMapRangeBody flags nondeterministic emission from one map-range
// loop. Nested map-range loops are skipped here — the runDeterminism
// walk visits them separately, so each loop is judged exactly once.
func checkMapRangeBody(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt, sorts []sortCall) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.RangeStmt:
			if isMapType(pass, e.X) {
				return false
			}
		case *ast.AssignStmt:
			for ri, rhs := range e.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || ri >= len(e.Lhs) {
					continue
				}
				target, ok := e.Lhs[ri].(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Uses[target]
				if obj == nil {
					obj = pass.TypesInfo.Defs[target]
				}
				if obj == nil || insideNode(rng, obj.Pos()) {
					continue // loop-local accumulation is invisible outside
				}
				if sortedAfter(sorts, rng.End(), obj) {
					continue // collect-then-sort idiom
				}
				if !allowed(pass.Fset, file, e.Pos(), "nondeterminism") {
					pass.Reportf(e.Pos(),
						"append to %s inside map iteration without a later sort; map order is random",
						target.Name)
				}
			}
		case *ast.CallExpr:
			sel, ok := e.Fun.(*ast.SelectorExpr)
			if !ok || !emitNames[sel.Sel.Name] {
				return true
			}
			if !allowed(pass.Fset, file, e.Pos(), "nondeterminism") {
				pass.Reportf(e.Pos(),
					"%s call inside map iteration emits in random order; sort keys first",
					sel.Sel.Name)
			}
		}
		return true
	})
}

func isMapType(pass *analysis.Pass, x ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

func insideNode(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}

func sortedAfter(sorts []sortCall, after token.Pos, slice types.Object) bool {
	for _, sc := range sorts {
		if sc.pos > after && sc.args[slice] {
			return true
		}
	}
	return false
}
