package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"repro/internal/lint/analysis"
)

// The hot-path annotation. A function whose doc comment contains
//
//	//lint:hotpath
//
// becomes a hotalloc root: every allocation statically reachable from
// it is a finding. The analyzer is the compile-time twin of the
// TestAnnealMoveZeroAlloc runtime gate — the benchmark proves one
// particular run allocated nothing, the analyzer proves no call site
// anywhere in the reachable graph can have introduced an allocation
// without an audit-trail annotation.
var hotpathRE = regexp.MustCompile(`^//lint:hotpath(\s.*)?$`)

// hotCleanPkgs are stdlib packages whose functions and methods are
// known allocation-free: pure arithmetic and lock-word manipulation.
var hotCleanPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

// hotCleanRecvPkgs are stdlib packages whose *methods* are known
// allocation-free (drawing from a seeded *rand.Rand, comparing times,
// locking a mutex) even though their constructors and top-level
// functions generally are not.
var hotCleanRecvPkgs = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"time":         true,
	"sync":         true,
}

// Hotalloc walks the static call graph from every //lint:hotpath
// function and reports anything that can allocate on the way: make/new,
// append growth, closure captures, interface boxing, string
// concatenation and conversions, fmt calls, go statements, and — because
// a static analyzer must be honest about its blind spots — dynamic
// calls and calls into packages whose source it cannot see, which need
// an //lint:allow alloc(reason) stating why they are safe. Calls into
// other module packages are followed interprocedurally through the
// driver's Dep hook; an allow on a call site vouches for the whole
// callee and stops the walk there. panic calls are skipped: a panic is
// terminal, not part of any steady state the gate protects.
var Hotalloc = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "functions annotated //lint:hotpath must not reach allocations: make/new/append, " +
		"closure capture, interface boxing, string building, fmt, or unanalyzable calls " +
		"(escape hatch: //lint:allow alloc(reason))",
	Run: runHotalloc,
}

func runHotalloc(pass *analysis.Pass) (interface{}, error) {
	rootView := &pkgView{
		path:  pass.Pkg.Path(),
		files: pass.Files,
		pkg:   pass.Pkg,
		info:  pass.TypesInfo,
	}
	w := &hotWalker{
		pass:     pass,
		views:    map[string]*pkgView{rootView.path: rootView},
		reported: make(map[hotFinding]bool),
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isHotpath(fn) {
				continue
			}
			w.root = funcDisplayName(fn)
			w.visited = make(map[*types.Func]bool)
			if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
				w.visited[obj] = true
			}
			w.walkBody(rootView, fn)
		}
	}
	return nil, nil
}

// isHotpath reports whether fn's doc comment carries the annotation.
func isHotpath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if hotpathRE.MatchString(c.Text) {
			return true
		}
	}
	return false
}

// funcDisplayName renders fn for diagnostics: "Name" or "(*Recv).Name".
func funcDisplayName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	name := receiverTypeName(recv)
	if _, ok := recv.(*ast.StarExpr); ok {
		name = "*" + name
	}
	return "(" + name + ")." + fn.Name.Name
}

// pkgView is the uniform syntax+types view hotalloc walks: the pass's
// own package or a dependency obtained through Pass.Dep.
type pkgView struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	decls map[*types.Func]*ast.FuncDecl // lazily built
}

// declOf finds the FuncDecl defining obj within the view.
func (v *pkgView) declOf(obj *types.Func) *ast.FuncDecl {
	if v.decls == nil {
		v.decls = make(map[*types.Func]*ast.FuncDecl)
		for _, f := range v.files {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok {
					if def, ok := v.info.Defs[fn.Name].(*types.Func); ok {
						v.decls[def] = fn
					}
				}
			}
		}
	}
	return v.decls[obj]
}

// hotFinding dedups diagnostics per (root, position, message): a
// function reachable from two roots is reported once per root, a site
// reached twice from one root once.
type hotFinding struct {
	root string
	pos  token.Pos
	msg  string
}

type hotWalker struct {
	pass     *analysis.Pass
	views    map[string]*pkgView
	root     string
	visited  map[*types.Func]bool
	reported map[hotFinding]bool
}

// view resolves a package path to its syntax view, consulting the
// driver's Dep hook for anything but the pass's own package. nil means
// the package's source is not available (stdlib, unanalyzed).
func (w *hotWalker) view(path string) *pkgView {
	if v, ok := w.views[path]; ok {
		return v
	}
	var v *pkgView
	if w.pass.Dep != nil {
		if d := w.pass.Dep(path); d != nil && len(d.Files) > 0 {
			v = &pkgView{path: d.PkgPath, files: d.Files, pkg: d.Pkg, info: d.TypesInfo}
		}
	}
	w.views[path] = v // cache negative results too
	return v
}

func (w *hotWalker) report(v *pkgView, pos token.Pos, format string, args ...interface{}) {
	if f := fileFor(v.files, pos); f != nil && allowed(w.pass.Fset, f, pos, "alloc") {
		return
	}
	msg := "hotpath " + w.root + ": " + fmt.Sprintf(format, args...)
	key := hotFinding{root: w.root, pos: pos, msg: msg}
	if w.reported[key] {
		return
	}
	w.reported[key] = true
	w.pass.Report(analysis.Diagnostic{Pos: pos, Message: msg})
}

// walkBody scans one function body for allocation sites and follows
// static calls.
func (w *hotWalker) walkBody(v *pkgView, fn *ast.FuncDecl) {
	w.walkNode(v, fn.Body, fn.Pos(), fn.End())
}

// walkNode scans node (a function or literal body) in view v.
// enclStart/enclEnd delimit the innermost enclosing function including
// its signature, for closure-capture detection.
func (w *hotWalker) walkNode(v *pkgView, node ast.Node, enclStart, enclEnd token.Pos) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			if capName := w.capturedVar(v, e, enclStart, enclEnd); capName != "" {
				w.report(v, e.Pos(), "func literal captures %s and allocates a closure", capName)
			}
			// The literal may run on the hot path too; captures inside it
			// are judged against the literal's own extent.
			w.walkNode(v, e.Body, e.Pos(), e.End())
			return false
		case *ast.GoStmt:
			w.report(v, e.Pos(), "go statement allocates a goroutine")
		case *ast.CompositeLit:
			tv, ok := v.info.Types[e]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				w.report(v, e.Pos(), "slice literal allocates")
			case *types.Map:
				w.report(v, e.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := e.X.(*ast.CompositeLit); ok {
					w.report(v, e.Pos(), "&composite literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isStringType(v.info, e.X) {
				w.report(v, e.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if e.Tok == token.ADD_ASSIGN && len(e.Lhs) == 1 && isStringType(v.info, e.Lhs[0]) {
				w.report(v, e.Pos(), "string concatenation allocates")
			}
		case *ast.CallExpr:
			w.handleCall(v, e)
		}
		return true
	})
}

// capturedVar returns the name of a variable e captures from its
// enclosing function (receiver, parameters, or locals declared inside
// [enclStart, enclEnd) but outside the literal), or "".
func (w *hotWalker) capturedVar(v *pkgView, e *ast.FuncLit, enclStart, enclEnd token.Pos) string {
	name := ""
	ast.Inspect(e.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := v.info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		p := obj.Pos()
		outsideLit := p < e.Pos() || p >= e.End()
		inEncl := p >= enclStart && p < enclEnd
		if outsideLit && inEncl {
			name = obj.Name()
		}
		return true
	})
	return name
}

func isStringType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// handleCall classifies one call: builtin allocation, conversion,
// static call (followed interprocedurally), or dynamic call (reported).
func (w *hotWalker) handleCall(v *pkgView, call *ast.CallExpr) {
	// An allow on the call both suppresses the finding and stops the
	// walk: the annotation vouches for the whole callee.
	if f := fileFor(v.files, call.Pos()); f != nil && allowed(w.pass.Fset, f, call.Pos(), "alloc") {
		return
	}

	// Builtins. panic is deliberately absent: terminal paths are cold.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := v.info.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "make":
				w.report(v, call.Pos(), "make allocates")
			case "new":
				w.report(v, call.Pos(), "new allocates")
			case "append":
				w.report(v, call.Pos(), "append may grow its backing array")
			}
			return
		}
	}

	// Conversions: T(x) where T is a type, not a function.
	if tv, ok := v.info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() && len(call.Args) == 1 {
		w.handleConversion(v, call, tv.Type)
		return
	}

	callee := staticCallee(v.info, call)
	if callee == nil {
		w.checkBoxing(v, call)
		w.report(v, call.Pos(), "dynamic call %s; annotate the allocation-free contract", callDesc(call))
		return
	}
	if isInterfaceMethodCall(v.info, call) {
		w.checkBoxing(v, call)
		w.report(v, call.Pos(), "interface method call %s dispatches dynamically; annotate the allocation-free contract", callDesc(call))
		return
	}
	pkg := callee.Pkg()
	if pkg == nil {
		return
	}
	path := pkg.Path()
	if hotCleanPkgs[path] {
		return
	}
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil && hotCleanRecvPkgs[path] {
		return
	}
	if path == "fmt" {
		w.report(v, call.Pos(), "fmt.%s allocates", callee.Name())
		return
	}
	w.checkBoxing(v, call)
	// A call to a generic function or method resolves to an instantiated
	// *types.Func, which has no declaration of its own; its body is the
	// generic origin's, walked once whatever the type arguments.
	callee = callee.Origin()
	target := w.view(path)
	if target == nil {
		w.report(v, call.Pos(), "call to %s.%s is outside the analyzed module; annotate the allocation-free contract", path, callee.Name())
		return
	}
	decl := target.declOf(callee)
	if decl == nil || decl.Body == nil {
		w.report(v, call.Pos(), "no source for %s.%s; annotate the allocation-free contract", path, callee.Name())
		return
	}
	if w.visited[callee] {
		return
	}
	w.visited[callee] = true
	w.walkBody(target, decl)
}

// handleConversion reports allocating conversions: string <-> []byte /
// []rune, and boxing a non-pointer-shaped value into an interface.
func (w *hotWalker) handleConversion(v *pkgView, call *ast.CallExpr, to types.Type) {
	arg := call.Args[0]
	tv, ok := v.info.Types[arg]
	if !ok || tv.Type == nil {
		return
	}
	from := tv.Type
	if isStringy(to) && isByteOrRuneSlice(from) || isByteOrRuneSlice(to) && isStringy(from) {
		w.report(v, call.Pos(), "string conversion allocates")
		return
	}
	if types.IsInterface(to.Underlying()) && boxes(from) {
		w.report(v, call.Pos(), "conversion to interface boxes %s and allocates", from.String())
	}
}

// checkBoxing reports arguments whose passing converts a
// non-pointer-shaped concrete value into an interface parameter.
func (w *hotWalker) checkBoxing(v *pkgView, call *ast.CallExpr) {
	tv, ok := v.info.Types[ast.Unparen(call.Fun)]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // a ...spread passes the slice through
			}
			pt = params.At(params.Len() - 1).Type()
			if sl, ok := pt.Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		atv, ok := v.info.Types[arg]
		if !ok || atv.Type == nil || atv.IsNil() {
			continue
		}
		if boxes(atv.Type) {
			w.report(v, arg.Pos(), "argument boxes %s into an interface parameter and allocates", atv.Type.String())
		}
	}
}

// boxes reports whether converting a value of type t into an interface
// needs a heap allocation: anything not already an interface and not
// pointer-shaped (pointers, channels, maps, and funcs ride in the
// interface word directly).
func boxes(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer && u.Kind() != types.UntypedNil
	}
	return true
}

func isStringy(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// staticCallee resolves call to the *types.Func it statically invokes,
// or nil for calls through func values.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isInterfaceMethodCall reports whether call dispatches through an
// interface method table rather than to a concrete method.
func isInterfaceMethodCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok {
		return false // qualified identifier pkg.F
	}
	return types.IsInterface(s.Recv().Underlying())
}

// callDesc renders the call target for diagnostics.
func callDesc(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return "to " + fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return "to " + x.Name + "." + fun.Sel.Name
		}
		return "to " + fun.Sel.Name
	}
	return "through a func value"
}
