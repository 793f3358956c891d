package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
)

// A Fact is a datum one analyzer attaches to a package in one pass and
// consumes in another — possibly while analyzing a different package,
// which is what turns the per-package analyzers into a cross-package
// suite. The design mirrors golang.org/x/tools/go/analysis' package
// facts: an analyzer declares the concrete fact types it produces in
// Analyzer.FactTypes, exports facts with Pass.ExportPackageFact, and
// imports them — its own or a required analyzer's — with
// Pass.ImportPackageFact.
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

// factSet holds the package facts one analyzer exported while analyzing
// one package, in export order.
type factSet []Fact

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
	if len(fs) == 0 {
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
		return nil, nil
	}
	fs, err := decodeFacts(data)
	if err != nil {
		return nil, fmt.Errorf("facts of %s for %s: %w", analyzer, pkgPath, err)
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
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeFacts(data []byte) (factSet, error) {
	var fs factSet
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&fs); err != nil {
		return nil, err
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

// ExportPackageFact attaches fact to the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) {
	p.facts = append(p.facts, fact)
}

// ImportPackageFact copies into fact the package-level fact of its type
// attached to pkg, reporting whether one was found.
func (p *Pass) ImportPackageFact(pkg *types.Package, fact Fact) bool {
	if pkg == nil {
		return false
	}
	pkgPath := pkg.Path()
	want := reflect.TypeOf(fact)
	match := func(fs factSet) bool {
		for _, f := range fs {
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
