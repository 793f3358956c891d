package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package (or test unit).
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	// Files are the unit's source files, ordered by file name. For plain
	// packages these are the non-test files; test units add or consist of
	// _test.go files.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	loader *Loader // the loader that produced it (see analysis.Run)
}

// Loader parses and type-checks packages of the enclosing module.
// Standard-library imports are delegated to go/importer's source importer;
// module-local imports are resolved against the module root so that the
// whole repository shares one FileSet and one type-checked package graph.
// A Loader is not safe for concurrent use.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string
	// Tags are extra build tags treated as satisfied when evaluating
	// //go:build constraints, on top of the default configuration. The
	// san-tagged lint pass sets Tags = ["san"] so the sanitizer's gated
	// files enter the type-checked world; a Loader models exactly one
	// build configuration, so use one Loader per tag set.
	Tags []string

	std       types.ImporterFrom
	pkgs      map[string]*Package
	overrides map[string]string // import path → directory, for fixtures
	loading   map[string]bool   // import cycle guard
	memo      map[any]any       // Memo's values
}

// NewLoader builds a Loader for the module rooted at moduleRoot (the
// directory holding go.mod).
func NewLoader(moduleRoot string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleRoot: moduleRoot,
		ModulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:       map[string]*Package{},
		overrides:  map[string]string{},
		loading:    map[string]bool{},
		memo:       map[any]any{},
	}, nil
}

// modulePath reads the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s", gomod)
}

// FindModuleRoot walks upward from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// ModuleRel returns filename relative to the module root, the form in
// which every simlint report and message names a file. A file outside
// the module keeps its path.
func ModuleRel(root, filename string) string {
	if rel, ok := strings.CutPrefix(filename, root+"/"); ok && rel != "" {
		return rel
	}
	return filename
}

// Override maps importPath to an explicit directory. The analysistest
// runner uses this to load fixture packages under testdata/ with import
// paths that exercise the analyzers' package scoping.
func (l *Loader) Override(importPath, dir string) { l.overrides[importPath] = dir }

// Load parses and type-checks the package with the given module-local
// import path (or a registered override), caching the result.
func (l *Loader) Load(importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("import cycle through %s", importPath)
	}
	dir, err := l.dirFor(importPath)
	if err != nil {
		return nil, err
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", importPath, err)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no buildable Go files in %s", importPath, dir)
	}
	pkg, err := l.check(importPath, dir, files)
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// Memo returns the value fill computes for key, calling fill at most
// once per key for this loader. It lets an analyzer derive data from a
// loaded package once per type-checked world instead of once per pass,
// without a package-level cache outliving the loader. Keys must be
// comparable; use an unexported key type so analyzers cannot collide.
func (l *Loader) Memo(key any, fill func() any) any {
	if v, ok := l.memo[key]; ok {
		return v
	}
	v := fill()
	l.memo[key] = v
	return v
}

// TestUnits loads the test code of an already-loadable package as up to
// two extra compilation units, mirroring `go test`'s package split:
//
//   - the in-package unit: the package's files plus its same-package
//     _test.go files, re-type-checked together under the same import path
//     (test helpers see unexported state);
//   - the external unit: the package_test files, type-checked as their
//     own package under the synthetic path importPath+"_test", importing
//     the package under test through the ordinary loader path.
//
// Test units are leaves — nothing may import them — so they are not
// cached under the package's import path and never shadow the shipping
// unit. A package with no test files yields no units.
func (l *Loader) TestUnits(importPath string) ([]*Package, error) {
	pkg, err := l.Load(importPath)
	if err != nil {
		return nil, err
	}
	inPkg, external, err := l.parseTestFiles(pkg.Dir, pkg.Types.Name())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", importPath, err)
	}
	var units []*Package
	if len(inPkg) > 0 {
		unit, err := l.check(importPath, pkg.Dir, append(append([]*ast.File{}, pkg.Files...), inPkg...))
		if err != nil {
			return nil, err
		}
		units = append(units, unit)
	}
	if len(external) > 0 {
		unit, err := l.check(importPath+"_test", pkg.Dir, external)
		if err != nil {
			return nil, err
		}
		units = append(units, unit)
	}
	return units, nil
}

// parseTestFiles parses dir's buildable _test.go files, split into the
// in-package set (package pkgName) and the external set (pkgName_test).
func (l *Loader) parseTestFiles(dir, pkgName string) (inPkg, external []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		if !l.fileIncluded(f) {
			continue
		}
		switch f.Name.Name {
		case pkgName:
			inPkg = append(inPkg, f)
		case pkgName + "_test":
			external = append(external, f)
		}
	}
	return inPkg, external, nil
}

// check type-checks a set of parsed files as one unit without caching it.
func (l *Loader) check(importPath, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("%s: type checking failed: %v", importPath, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.Fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		loader:     l,
	}, nil
}

func (l *Loader) dirFor(importPath string) (string, error) {
	if dir, ok := l.overrides[importPath]; ok {
		return dir, nil
	}
	if importPath == l.ModulePath {
		return l.ModuleRoot, nil
	}
	if rest, ok := strings.CutPrefix(importPath, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest)), nil
	}
	return "", fmt.Errorf("%s is not in module %s", importPath, l.ModulePath)
}

// parseDir parses the non-test .go files of dir in file-name order.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if !l.fileIncluded(f) {
			continue
		}
		files = append(files, f)
	}
	return files, nil
}

// fileIncluded evaluates a parsed file's //go:build constraint (if any)
// under this loader's build configuration — host GOOS/GOARCH plus the
// loader's extra Tags — matching what `go build [-tags=...] ./...` would
// compile. This is what keeps mutually exclusive tag pairs
// (sancheck_san.go / sancheck_nosan.go) from both entering one
// type-checked package.
func (l *Loader) fileIncluded(f *ast.File) bool {
	return FileBuildable(f, l.Tags)
}

// FileBuildable reports whether f's //go:build constraint (if any) is
// satisfied under the default build configuration extended with the given
// custom tags. Analyzers use it with no tags to ask the question "does
// this file ship in an untagged build?" regardless of which configuration
// loaded it — the heart of sanlint's zero-cost proof.
func FileBuildable(f *ast.File, tags []string) bool {
	eval := func(tag string) bool {
		for _, t := range tags {
			if tag == t {
				return true
			}
		}
		return defaultBuildTag(tag)
	}
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break // constraints must precede the package clause
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue // malformed constraint: keep the file, let vet complain
			}
			return expr.Eval(eval)
		}
	}
	return true
}

// defaultBuildTag reports whether tag is satisfied in a default build:
// host OS/arch, the gc toolchain, unix on unix-like hosts, and every
// released go1.N version tag. Custom tags (like `san`) are not.
func defaultBuildTag(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "unix":
		switch runtime.GOOS {
		case "linux", "darwin", "freebsd", "netbsd", "openbsd", "solaris", "aix", "dragonfly", "illumos", "ios":
			return true
		}
		return false
	}
	if rest, ok := strings.CutPrefix(tag, "go1."); ok {
		// Treat every go1.N tag as satisfied: the toolchain building this
		// linter is at least as new as the module's go directive.
		for _, r := range rest {
			if r < '0' || r > '9' {
				return false
			}
		}
		return rest != ""
	}
	return false
}

// loaderImporter adapts Loader to types.Importer: module-local paths load
// through the Loader, everything else (the standard library) through the
// shared source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, l.ModuleRoot, 0)
}

// Expand resolves package patterns relative to the module root into a
// sorted list of import paths. Supported forms: "./..." (every package in
// the module), "./dir/..." (every package under dir), and "./dir" or a
// plain import path (one package). Directories named testdata, vendor, or
// starting with "." or "_" are never descended into.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			paths, err := l.walkPackages(l.ModuleRoot)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		case strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(pat, "/...")
			dir, err := l.patternDir(base)
			if err != nil {
				return nil, err
			}
			paths, err := l.walkPackages(dir)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		default:
			dir, err := l.patternDir(pat)
			if err != nil {
				return nil, err
			}
			p, ok := l.importPathFor(dir)
			if !ok {
				return nil, fmt.Errorf("pattern %q resolves outside module %s", pat, l.ModulePath)
			}
			add(p)
		}
	}
	sort.Strings(out)
	return out, nil
}

func (l *Loader) patternDir(pat string) (string, error) {
	if strings.HasPrefix(pat, "./") || pat == "." {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(pat, "./"))), nil
	}
	return l.dirFor(pat)
}

func (l *Loader) importPathFor(dir string) (string, bool) {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", false
	}
	if rel == "." {
		return l.ModulePath, true
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), true
}

// walkPackages returns the import paths of every directory under root that
// contains at least one non-test .go file.
func (l *Loader) walkPackages(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				if p, ok := l.importPathFor(path); ok {
					out = append(out, p)
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}
