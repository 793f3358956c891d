package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
	"sort"
)

// A Fact is a datum one analyzer attaches to a types.Object or a package
// in one pass and consumes in another — possibly while analyzing a
// different package, which is what turns the per-package analyzers into a
// cross-package suite. The design mirrors
// golang.org/x/tools/go/analysis: an analyzer declares the concrete fact
// types it produces in Analyzer.FactTypes, exports facts with
// Pass.ExportObjectFact / Pass.ExportPackageFact, and imports them —
// its own or a required analyzer's — with the Import counterparts.
//
// Facts cross package boundaries serialized: when a package's analysis
// completes, its exported facts are gob-encoded, and a downstream
// package decodes them on first import. The round trip is not an
// implementation detail — it guarantees facts carry plain data (no live
// pointers into a dependency's syntax trees or type checker), which is
// what would let this runner analyze packages in separate processes, as
// the upstream driver does. Fact types must therefore be gob-encodable
// pointers to structs of exported fields.
type Fact interface {
	// AFact marks the type as a fact. It is never called.
	AFact()
}

// wireFact is the serialized form of one exported fact: the object key
// ("" for a package fact) and the registered concrete fact value.
type wireFact struct {
	Key  string
	Fact Fact
}

// factSet holds the facts one analyzer exported while analyzing one
// package, in both live and serialized form.
type factSet struct {
	objects  map[string][]Fact // object key → facts, in export order
	pkgFacts []Fact
}

// factDB stores fact sets per (package import path, analyzer). The
// runner owns one database per configuration; analyzers only see it
// through the Pass accessors.
type factDB struct {
	encoded map[string]map[string][]byte  // pkg path → analyzer → gob
	decoded map[string]map[string]factSet // pkg path → analyzer → facts
}

func newFactDB() *factDB {
	return &factDB{
		encoded: map[string]map[string][]byte{},
		decoded: map[string]map[string]factSet{},
	}
}

// commit serializes the facts an analyzer exported for pkgPath and
// stores only the encoded bytes: downstream imports must decode them,
// so every fact provably survives the round trip.
func (db *factDB) commit(pkgPath, analyzer string, fs factSet) error {
	if len(fs.objects) == 0 && len(fs.pkgFacts) == 0 {
		return nil
	}
	data, err := encodeFacts(fs)
	if err != nil {
		return fmt.Errorf("facts of %s for %s: %w", analyzer, pkgPath, err)
	}
	m := db.encoded[pkgPath]
	if m == nil {
		m = map[string][]byte{}
		db.encoded[pkgPath] = m
	}
	m[analyzer] = data
	return nil
}

// load returns the decoded fact set for (pkgPath, analyzer), decoding
// and caching on first use.
func (db *factDB) load(pkgPath, analyzer string) (factSet, error) {
	if m, ok := db.decoded[pkgPath]; ok {
		if fs, ok := m[analyzer]; ok {
			return fs, nil
		}
	}
	data := db.encoded[pkgPath][analyzer]
	if data == nil {
		return factSet{}, nil
	}
	fs, err := decodeFacts(data)
	if err != nil {
		return factSet{}, fmt.Errorf("facts of %s for %s: %w", analyzer, pkgPath, err)
	}
	m := db.decoded[pkgPath]
	if m == nil {
		m = map[string]factSet{}
		db.decoded[pkgPath] = m
	}
	m[analyzer] = fs
	return fs, nil
}

// encodeFacts and decodeFacts are split out (rather than inlined into
// commit/load) so the serialization round trip is unit-testable on its
// own.
func encodeFacts(fs factSet) ([]byte, error) {
	keys := make([]string, 0, len(fs.objects))
	for key := range fs.objects {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var wire []wireFact
	for _, key := range keys {
		for _, f := range fs.objects[key] {
			wire = append(wire, wireFact{Key: key, Fact: f})
		}
	}
	for _, f := range fs.pkgFacts {
		wire = append(wire, wireFact{Key: "", Fact: f})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeFacts(data []byte) (factSet, error) {
	var wire []wireFact
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wire); err != nil {
		return factSet{}, err
	}
	fs := factSet{objects: map[string][]Fact{}}
	for _, w := range wire {
		if w.Key == "" {
			fs.pkgFacts = append(fs.pkgFacts, w.Fact)
		} else {
			fs.objects[w.Key] = append(fs.objects[w.Key], w.Fact)
		}
	}
	return fs, nil
}

// registerFactTypes makes every fact type declared by the analyzers (and
// their Requires closure) known to gob. Registration is idempotent per
// concrete type; gob panics only on name collisions between distinct
// types, which is a configuration bug worth crashing on.
func registerFactTypes(analyzers []*Analyzer) {
	seen := map[reflect.Type]bool{}
	for _, a := range analyzers {
		for _, f := range a.FactTypes {
			t := reflect.TypeOf(f)
			if t == nil || seen[t] {
				continue
			}
			seen[t] = true
			gob.Register(f)
		}
	}
}

// objectKey returns a stable, serialization-friendly key for the objects
// facts may be attached to: package-scope objects ("Name") and fields or
// methods of package-scope named types ("Type.Name"). These are the only
// shapes the suite needs; anything else is an analyzer bug.
func objectKey(obj types.Object) (string, error) {
	if obj == nil || obj.Pkg() == nil {
		return "", fmt.Errorf("fact on object %v outside any package", obj)
	}
	scope := obj.Pkg().Scope()
	if scope.Lookup(obj.Name()) == obj {
		return obj.Name(), nil
	}
	// A field or method: find the package-scope named type that owns it.
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if named.Method(i) == obj {
				return name + "." + obj.Name(), nil
			}
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == obj {
					return name + "." + obj.Name(), nil
				}
			}
		}
	}
	return "", fmt.Errorf("fact on unsupported object %s (only package-scope objects and their fields/methods)", obj)
}

// ExportObjectFact attaches fact to obj, which must belong to the
// package under analysis. Facts become visible to downstream packages
// (and later analyzers in this package) once this pass completes.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() != p.Pkg {
		panic(fmt.Sprintf("%s: ExportObjectFact on object %v of another package", p.Analyzer.Name, obj))
	}
	key, err := objectKey(obj)
	if err != nil {
		panic(fmt.Sprintf("%s: %v", p.Analyzer.Name, err))
	}
	if p.facts.objects == nil {
		p.facts.objects = map[string][]Fact{}
	}
	p.facts.objects[key] = append(p.facts.objects[key], fact)
}

// ExportPackageFact attaches fact to the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) {
	p.facts.pkgFacts = append(p.facts.pkgFacts, fact)
}

// ImportObjectFact copies into fact (a pointer to the concrete type) the
// fact of that type attached to obj by this analyzer or any analyzer in
// its Requires closure, reporting whether one was found. Facts of
// dependency packages were analyzed earlier in dependency order and
// arrive through the serialized store.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	key, err := objectKey(obj)
	if err != nil {
		return false
	}
	return p.importFact(obj.Pkg().Path(), key, fact)
}

// ImportPackageFact copies into fact the package-level fact of its type
// attached to pkg, reporting whether one was found.
func (p *Pass) ImportPackageFact(pkg *types.Package, fact Fact) bool {
	if pkg == nil {
		return false
	}
	return p.importFact(pkg.Path(), "", fact)
}

func (p *Pass) importFact(pkgPath, key string, fact Fact) bool {
	want := reflect.TypeOf(fact)
	match := func(fs factSet) bool {
		candidates := fs.pkgFacts
		if key != "" {
			candidates = fs.objects[key]
		}
		for _, f := range candidates {
			if reflect.TypeOf(f) == want {
				reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(f).Elem())
				return true
			}
		}
		return false
	}
	// Same package, same run: the live sets of this analyzer and its
	// requirements, not yet committed to the database.
	if pkgPath == p.Pkg.Path() && p.liveFacts != nil {
		for _, name := range p.factScope() {
			if match(p.liveFacts(name)) {
				return true
			}
		}
		return false
	}
	if p.db == nil {
		return false
	}
	for _, name := range p.factScope() {
		fs, err := p.db.load(pkgPath, name)
		if err == nil && match(fs) {
			return true
		}
	}
	return false
}

// factScope lists the analyzer names whose facts this pass may read: its
// own and its transitive requirements'.
func (p *Pass) factScope() []string {
	names := []string{p.Analyzer.Name}
	var walk func(a *Analyzer)
	seen := map[*Analyzer]bool{p.Analyzer: true}
	walk = func(a *Analyzer) {
		for _, req := range a.Requires {
			if !seen[req] {
				seen[req] = true
				names = append(names, req.Name)
				walk(req)
			}
		}
	}
	walk(p.Analyzer)
	return names
}
