package effects

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"bingo/internal/lint/analysis"
)

// allocPkgs is the known-allocating standard-library table: a call into
// one of these packages is recorded as an allocation site rather than a
// call edge (their bodies are not summarized). The table is coarse on
// purpose — a hot path has no business calling fmt even when the
// specific function happens not to allocate — and //hot:alloc waives
// the exceptions with a reason on record.
var allocPkgs = map[string]bool{
	"fmt": true, "errors": true, "strings": true, "strconv": true,
	"sort": true, "bytes": true, "log": true, "regexp": true,
}

// summarizePackage builds the PkgEffects fact for the package under
// analysis: one FuncEffects per declared function, method, and function
// literal, plus the escaping function references.
func summarizePackage(pass *analysis.Pass) *PkgEffects {
	s := &summarizer{
		pass:     pass,
		pe:       &PkgEffects{Funcs: map[string]*FuncEffects{}},
		hotWaive: map[string]map[int]string{},
		obsWaive: map[string]map[int]string{},
	}
	s.collectMarkers()
	for _, f := range pass.Files {
		tagged := !analysis.FileBuildable(f, nil)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.ObjectOf(fd.Name).(*types.Func)
			if !ok {
				continue
			}
			key, ok := FuncKey(fn)
			if !ok {
				continue
			}
			if fd.Recv == nil && fd.Name.Name == "init" {
				s.initCount++
				key = fmt.Sprintf("%s.init#%d", pass.Pkg.Path(), s.initCount)
			}
			s.summarizeFunc(key, fn, fd, tagged)
		}
	}
	return s.pe
}

type summarizer struct {
	pass      *analysis.Pass
	pe        *PkgEffects
	hotWaive  map[string]map[int]string // file → line → //hot:alloc reason
	obsWaive  map[string]map[int]string // file → line → //obs:write reason
	initCount int
}

// collectMarkers indexes the //hot:alloc and //obs:write site waivers by
// file and line, so the walker can stamp Waived onto the sites they
// cover (the directive's own line, or the line directly above the site).
func (s *summarizer) collectMarkers() {
	for _, f := range s.pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m, ok := analysis.ParseMarker(c.Text)
				if !ok || m.Arg == "" {
					continue
				}
				var idx map[string]map[int]string
				switch {
				case m.Domain == "hot" && m.Verb == "alloc":
					idx = s.hotWaive
				case m.Domain == "obs" && m.Verb == "write":
					idx = s.obsWaive
				default:
					continue
				}
				pos := s.pass.Fset.Position(c.Pos())
				lines := idx[pos.Filename]
				if lines == nil {
					lines = map[int]string{}
					idx[pos.Filename] = lines
				}
				lines[pos.Line] = m.Arg
			}
		}
	}
}

func (s *summarizer) waiver(idx map[string]map[int]string, pos token.Pos) string {
	p := s.pass.Fset.Position(pos)
	lines := idx[p.Filename]
	if lines == nil {
		return ""
	}
	if r, ok := lines[p.Line]; ok {
		return r
	}
	return lines[p.Line-1]
}

func (s *summarizer) summarizeFunc(key string, fn *types.Func, fd *ast.FuncDecl, tagged bool) {
	sig := fn.Type().(*types.Signature)
	fe := &FuncEffects{
		Key:       key,
		Pkg:       s.pass.Pkg.Path(),
		Name:      fd.Name.Name,
		Decl:      relPos(s.pass, fd.Name.Pos()),
		Sig:       sigString(sig),
		Test:      s.pass.InTestFile(fd.Pos()),
		Tagged:    tagged,
		localDecl: fd.Name.Pos(),
	}
	fe.HotRoot = fd.Recv != nil && hotRootShape(fd.Name.Name, sig)
	obsBody := ""
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			m, ok := analysis.ParseMarker(c.Text)
			if !ok {
				continue
			}
			switch {
			case m.Domain == "hot" && m.Verb == "alloc":
				fe.AllocFree = m.Arg
			case m.Domain == "hot" && m.Verb == "path":
				fe.HotPath = m.Arg
			case m.Domain == "obs" && m.Verb == "write":
				// A doc-comment //obs:write waives every write in the body,
				// function literals included.
				obsBody = m.Arg
			}
		}
	}
	w := &walker{s: s, fe: fe, results: sig.Results(), hotBody: fe.AllocFree, obsBody: obsBody}
	fe.Trace = w.stmts(fd.Body.List)
	s.pe.Funcs[key] = fe
}

// hotRootShape matches the per-cycle entry-point signatures: a
// prefetcher's OnAccess (one parameter, one result) and OnEviction (one
// parameter, no results), and a component's Tick (no results).
func hotRootShape(name string, sig *types.Signature) bool {
	switch name {
	case "OnAccess":
		return sig.Params().Len() == 1 && sig.Results().Len() == 1
	case "OnEviction":
		return sig.Params().Len() == 1 && sig.Results().Len() == 0
	case "Tick":
		return sig.Results().Len() == 0
	}
	return false
}

// walker builds one function's effect trace: its call edges, flat, with
// allocation and write sites recorded on the summary alongside.
type walker struct {
	s       *summarizer
	fe      *FuncEffects
	results *types.Tuple
	lits    int
	// hotBody/obsBody carry the enclosing declaration's doc-comment
	// waivers; function literals inherit them, so a body-level waiver
	// covers the closures the body builds.
	hotBody string
	obsBody string
}

func (w *walker) pass() *analysis.Pass { return w.s.pass }

func (w *walker) alloc(pos token.Pos, what string) {
	waived := w.s.waiver(w.s.hotWaive, pos)
	if waived == "" {
		waived = w.hotBody
	}
	w.fe.Allocs = append(w.fe.Allocs, AllocSite{
		What:     what,
		Pos:      relPos(w.pass(), pos),
		Waived:   waived,
		localPos: pos,
	})
}

func (w *walker) write(lhs ast.Expr, pos token.Pos) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
		return
	}
	pkg, target, mapWrite := writeTargetOf(w.pass(), lhs)
	if mapWrite {
		w.alloc(pos, "map write")
	}
	if target == "" {
		return
	}
	waived := w.s.waiver(w.s.obsWaive, pos)
	if waived == "" {
		waived = w.obsBody
	}
	w.fe.Writes = append(w.fe.Writes, WriteSite{
		Pkg:      pkg,
		Target:   target,
		Pos:      relPos(w.pass(), pos),
		Waived:   waived,
		localPos: pos,
	})
}

// lit summarizes a function literal under a synthetic key derived from
// the enclosing summary, and returns that key.
func (w *walker) lit(fl *ast.FuncLit) string {
	w.lits++
	key := fmt.Sprintf("%s$%d", w.fe.Key, w.lits)
	sig, _ := w.pass().TypeOf(fl).(*types.Signature)
	fe := &FuncEffects{
		Key:       key,
		Pkg:       w.fe.Pkg,
		Name:      w.fe.Name + " (func literal)",
		Decl:      relPos(w.pass(), fl.Pos()),
		Test:      w.fe.Test,
		Tagged:    w.fe.Tagged,
		localDecl: fl.Pos(),
	}
	if sig != nil {
		fe.Sig = sigString(sig)
	}
	inner := &walker{s: w.s, fe: fe, hotBody: w.hotBody, obsBody: w.obsBody}
	if sig != nil {
		inner.results = sig.Results()
	}
	fe.Trace = inner.stmts(fl.Body.List)
	w.s.pe.Funcs[key] = fe
	return key
}

func (w *walker) escape(key, sig string) {
	w.s.pe.Escapes = append(w.s.pe.Escapes, FuncRef{Key: key, Sig: sig})
}

// maybeEscape records an identifier used as a value (not as a call's
// function operand) that denotes a module-local function or method.
func (w *walker) maybeEscape(id *ast.Ident) {
	fn, ok := w.pass().Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || !moduleLocal(fn.Pkg().Path()) {
		return
	}
	key, ok := FuncKey(fn)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	w.escape(key, sigString(sig))
}

// ---- statements ----

func (w *walker) stmts(list []ast.Stmt) []Event {
	var out []Event
	for _, st := range list {
		out = append(out, w.stmt(st)...)
	}
	return out
}

func (w *walker) stmt(st ast.Stmt) []Event {
	switch st := st.(type) {
	case nil:
		return nil
	case *ast.ExprStmt:
		return w.expr(st.X)
	case *ast.AssignStmt:
		return w.assign(st)
	case *ast.IncDecStmt:
		evs := w.expr(st.X)
		w.write(st.X, st.Pos())
		return evs
	case *ast.SendStmt:
		return append(w.expr(st.Chan), w.expr(st.Value)...)
	case *ast.GoStmt:
		return w.goStmt(st)
	case *ast.DeferStmt:
		evs, _ := w.callParts(st.Call)
		return evs
	case *ast.ReturnStmt:
		var evs []Event
		for i, r := range st.Results {
			evs = append(evs, w.expr(r)...)
			if w.results != nil && len(st.Results) == w.results.Len() {
				w.boxCheck(w.results.At(i).Type(), r)
			}
		}
		return evs
	case *ast.BlockStmt:
		return w.stmts(st.List)
	case *ast.LabeledStmt:
		return w.stmt(st.Stmt)
	case *ast.IfStmt:
		evs := w.stmt(st.Init)
		evs = append(evs, w.expr(st.Cond)...)
		evs = append(evs, w.stmts(st.Body.List)...)
		return append(evs, w.stmt(st.Else)...)
	case *ast.ForStmt:
		evs := w.stmt(st.Init)
		evs = append(evs, w.expr(st.Cond)...)
		evs = append(evs, w.stmts(st.Body.List)...)
		return append(evs, w.stmt(st.Post)...)
	case *ast.RangeStmt:
		evs := w.expr(st.X)
		if st.Tok == token.ASSIGN {
			if st.Key != nil {
				w.write(st.Key, st.Key.Pos())
			}
			if st.Value != nil {
				w.write(st.Value, st.Value.Pos())
			}
		}
		return append(evs, w.stmts(st.Body.List)...)
	case *ast.SwitchStmt:
		evs := w.stmt(st.Init)
		evs = append(evs, w.expr(st.Tag)...)
		return append(evs, w.clauses(st.Body)...)
	case *ast.TypeSwitchStmt:
		evs := w.stmt(st.Init)
		evs = append(evs, w.stmt(st.Assign)...)
		return append(evs, w.clauses(st.Body)...)
	case *ast.SelectStmt:
		return w.clauses(st.Body)
	case *ast.DeclStmt:
		return w.declStmt(st)
	}
	return nil
}

// clauses walks the case clauses of a switch or the comm clauses of a
// select.
func (w *walker) clauses(body *ast.BlockStmt) []Event {
	var evs []Event
	for _, cl := range body.List {
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				evs = append(evs, w.expr(e)...)
			}
			evs = append(evs, w.stmts(cl.Body)...)
		case *ast.CommClause:
			evs = append(evs, w.stmt(cl.Comm)...)
			evs = append(evs, w.stmts(cl.Body)...)
		}
	}
	return evs
}

func (w *walker) declStmt(st *ast.DeclStmt) []Event {
	gd, ok := st.Decl.(*ast.GenDecl)
	if !ok {
		return nil
	}
	var evs []Event
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		var dst types.Type
		if vs.Type != nil {
			dst = w.pass().TypeOf(vs.Type)
		}
		for _, v := range vs.Values {
			evs = append(evs, w.expr(v)...)
			if dst != nil {
				w.boxCheck(dst, v)
			}
		}
	}
	return evs
}

func (w *walker) assign(st *ast.AssignStmt) []Event {
	var evs []Event
	for _, r := range st.Rhs {
		evs = append(evs, w.expr(r)...)
	}
	for i, l := range st.Lhs {
		if st.Tok == token.DEFINE {
			if _, isIdent := ast.Unparen(l).(*ast.Ident); isIdent {
				continue // fresh local: no store to pre-existing state
			}
		}
		evs = append(evs, w.expr(l)...)
		w.write(l, st.Pos())
		if st.Tok == token.ASSIGN && len(st.Lhs) == len(st.Rhs) {
			if dst := w.pass().TypeOf(l); dst != nil {
				w.boxCheck(dst, st.Rhs[i])
			}
		}
	}
	return evs
}

func (w *walker) goStmt(st *ast.GoStmt) []Event {
	w.alloc(st.Pos(), "go statement")
	evs, own := w.callParts(st.Call)
	if own >= 0 {
		// Recast the call's own event as a spawn: same target resolution,
		// but consumers can tell the goroutine runs on another stack.
		ev := evs[own]
		ev.Kind = EvSpawn
		evs = append(evs[:own:own], ev)
	}
	return evs
}

// ---- expressions ----

func (w *walker) expr(e ast.Expr) []Event {
	switch e := e.(type) {
	case nil:
		return nil
	case *ast.ParenExpr:
		return w.expr(e.X)
	case *ast.CallExpr:
		evs, _ := w.callParts(e)
		return evs
	case *ast.FuncLit:
		key := w.lit(e)
		if sig, ok := w.pass().TypeOf(e).(*types.Signature); ok {
			w.escape(key, sigString(sig))
		}
		w.alloc(e.Pos(), "closure")
		return nil
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if cl, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
				w.alloc(e.Pos(), "&composite literal")
				return w.compositeElems(cl)
			}
		}
		return w.expr(e.X)
	case *ast.CompositeLit:
		switch typeUnderlying(w.pass(), e).(type) {
		case *types.Slice:
			w.alloc(e.Pos(), "slice literal")
		case *types.Map:
			w.alloc(e.Pos(), "map literal")
		}
		return w.compositeElems(e)
	case *ast.BinaryExpr:
		evs := append(w.expr(e.X), w.expr(e.Y)...)
		if e.Op == token.ADD && !isConstant(w.pass(), e) {
			if b, ok := typeUnderlying(w.pass(), e).(*types.Basic); ok && b.Info()&types.IsString != 0 {
				w.alloc(e.Pos(), "string concatenation")
			}
		}
		return evs
	case *ast.Ident:
		w.maybeEscape(e)
		return nil
	case *ast.SelectorExpr:
		evs := w.expr(e.X)
		w.maybeEscape(e.Sel)
		return evs
	case *ast.IndexExpr:
		if tv, ok := w.pass().Info.Types[e]; ok && tv.IsType() {
			return nil // generic type instantiation
		}
		return append(w.expr(e.X), w.expr(e.Index)...)
	case *ast.IndexListExpr:
		evs := w.expr(e.X)
		for _, idx := range e.Indices {
			evs = append(evs, w.expr(idx)...)
		}
		return evs
	case *ast.SliceExpr:
		evs := w.expr(e.X)
		for _, x := range []ast.Expr{e.Low, e.High, e.Max} {
			evs = append(evs, w.expr(x)...)
		}
		return evs
	case *ast.StarExpr:
		return w.expr(e.X)
	case *ast.TypeAssertExpr:
		return w.expr(e.X)
	case *ast.KeyValueExpr:
		return append(w.expr(e.Key), w.expr(e.Value)...)
	}
	return nil
}

func (w *walker) compositeElems(cl *ast.CompositeLit) []Event {
	var evs []Event
	for _, elt := range cl.Elts {
		evs = append(evs, w.expr(elt)...)
	}
	return evs
}

// boxCheck records an interface-boxing allocation when src, a concrete
// non-pointer-shaped value, converts to the interface type dst.
// Constants are skipped: the noise from literal arguments (error codes,
// format verbs) would drown the signal, and the compiler interns the
// common ones anyway.
func (w *walker) boxCheck(dst types.Type, src ast.Expr) {
	if dst == nil {
		return
	}
	if _, ok := dst.(*types.TypeParam); ok {
		return
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := w.pass().Info.Types[src]
	if !ok || tv.Value != nil || tv.Type == nil {
		return
	}
	st := tv.Type
	if types.IsInterface(st) {
		return
	}
	if b, ok := st.(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
		return // untyped nil
	}
	switch st.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped: fits an interface word without copying
	case *types.Basic:
		if st.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return
		}
	}
	w.alloc(src.Pos(), "interface boxing")
}

// callParts walks a call expression and returns its events; own is the
// index of the call's own event (the one a go statement recasts as a
// spawn), or -1 for conversions, builtins, and calls into packages whose
// bodies are not summarized.
func (w *walker) callParts(call *ast.CallExpr) (evs []Event, own int) {
	own = -1
	pass := w.pass()

	// Conversion: T(x).
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		for _, a := range call.Args {
			evs = append(evs, w.expr(a)...)
		}
		if len(call.Args) == 1 && !isConstant(pass, call) {
			w.convAlloc(call)
		}
		return evs, -1
	}

	fun := ast.Unparen(call.Fun)

	// Builtin: make, new, append, ...
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := pass.ObjectOf(id).(*types.Builtin); ok {
			for _, a := range call.Args {
				evs = append(evs, w.expr(a)...)
			}
			switch b.Name() {
			case "make":
				w.alloc(call.Pos(), "make")
			case "new":
				w.alloc(call.Pos(), "new")
			case "append":
				w.alloc(call.Pos(), "append growth")
			}
			return evs, -1
		}
	}

	fn := pass.CalleeFunc(call)
	if fn == nil {
		// Call through a function value.
		if lit, ok := fun.(*ast.FuncLit); ok {
			key := w.lit(lit) // immediately-invoked literal: a plain call edge
			evs = w.callArgs(call, nil)
			evs = append(evs, Event{Kind: EvCall, Key: key})
			return evs, len(evs) - 1
		}
		evs = w.expr(call.Fun)
		evs = append(evs, w.callArgs(call, nil)...)
		if sig, ok := pass.TypeOf(call.Fun).(*types.Signature); ok {
			evs = append(evs, Event{Kind: EvDynFunc, Sig: sigString(sig)})
			return evs, len(evs) - 1
		}
		return evs, -1
	}

	sig := fn.Type().(*types.Signature)

	// Receiver expression of a method call contributes its own events.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, ok := pass.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			evs = w.expr(sel.X)
		}
	}
	evs = append(evs, w.callArgs(call, sig)...)

	// Interface dispatch → CHA-resolved dynamic call.
	if recv := sig.Recv(); recv != nil {
		if _, ok := recv.Type().Underlying().(*types.Interface); ok {
			named := namedOf(recv.Type())
			if named == nil || named.Obj().Pkg() == nil {
				return evs, -1 // anonymous or universe interface: unresolvable
			}
			evs = append(evs, Event{
				Kind:   EvDynCall,
				Key:    named.Obj().Pkg().Path() + "." + named.Obj().Name(),
				Method: fn.Name(),
				Sig:    sigString(sig),
			})
			return evs, len(evs) - 1
		}
	}

	pkg := fn.Pkg()
	if pkg == nil {
		return evs, -1
	}

	if moduleLocal(pkg.Path()) {
		key, ok := FuncKey(fn)
		if !ok {
			return evs, -1
		}
		evs = append(evs, Event{Kind: EvCall, Key: key})
		return evs, len(evs) - 1
	}

	if allocPkgs[pkg.Path()] {
		w.alloc(call.Pos(), "call to "+pkg.Path()+"."+fn.Name())
	}
	return evs, -1
}

// callArgs walks the arguments and records boxing against the callee's
// parameter types when the signature is known.
func (w *walker) callArgs(call *ast.CallExpr, sig *types.Signature) []Event {
	var evs []Event
	params := 0
	if sig != nil {
		params = sig.Params().Len()
	}
	for i, a := range call.Args {
		evs = append(evs, w.expr(a)...)
		if sig == nil || call.Ellipsis.IsValid() {
			continue
		}
		var dst types.Type
		switch {
		case sig.Variadic() && i >= params-1:
			if sl, ok := sig.Params().At(params - 1).Type().(*types.Slice); ok {
				dst = sl.Elem()
			}
		case i < params:
			dst = sig.Params().At(i).Type()
		}
		w.boxCheck(dst, a)
	}
	return evs
}

// convAlloc records the allocating conversions: string ↔ []byte/[]rune.
func (w *walker) convAlloc(call *ast.CallExpr) {
	pass := w.pass()
	dst := typeUnderlying(pass, call)
	src := typeUnderlying(pass, call.Args[0])
	if dst == nil || src == nil {
		return
	}
	if isStringType(dst) && isByteOrRuneSlice(src) {
		w.alloc(call.Pos(), "string conversion")
	}
	if isByteOrRuneSlice(dst) && isStringType(src) {
		w.alloc(call.Pos(), "string conversion")
	}
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func typeUnderlying(pass *analysis.Pass, e ast.Expr) types.Type {
	t := pass.TypeOf(e)
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func isConstant(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.Value != nil
}
