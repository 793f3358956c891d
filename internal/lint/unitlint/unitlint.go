// Package unitlint enforces address-unit safety: the block and page
// geometry of the simulated machine lives in internal/mem (BlockShift,
// BlockSize, PageShift, RegionConfig, ...), and no other package may
// re-derive it with magic constants. A raw `addr >> 6` is a latent bug
// twice over — it silently disagrees with mem if the geometry ever
// changes, and it strips the units that make address math reviewable.
//
// The analyzer flags, outside bingo/internal/mem, shift / mask / modulus
// expressions whose constant operand is one of the block- or page-width
// magic numbers (shift counts 6 and 12, masks 63 and 4095, moduli 64 and
// 4096) when the value being operated on is address-like: its type is
// mem.Addr, mem.PC, or uint64. Expressions that spell the constant via the
// mem package (addr >> mem.BlockShift, a &^ (mem.BlockSize - 1)) are
// exempt — naming the unit is exactly the contract — and so is a constant
// named outside mem on a plain uint64 (`vpn % leafPages`: the name states
// a unit that is not the block or page), but never on a mem.Addr or
// mem.PC. The preferred fix is the typed helper (Addr.BlockNumber, Addr.PageNumber,
// RegionConfig.BlockIndex, ...). Bit-vector math on small integer indices
// (footprint words, tree-PLRU nodes) is untouched: the operand type filter
// keeps it out of scope.
package unitlint

import (
	"go/ast"
	"go/token"
	"go/types"

	"bingo/internal/lint/analysis"
)

// memPath is the package that owns address geometry.
const memPath = "bingo/internal/mem"

// Analyzer flags raw block/page-geometry constants outside internal/mem.
var Analyzer = &analysis.Analyzer{
	Name: "unitlint",
	Doc: "forbid raw shifts/masks by block- and page-width constants (>>6, >>12, &63, " +
		"&4095, %64, %4096) on address-typed values outside bingo/internal/mem",
	Run: run,
}

// magic maps each operator to the constant operand values that encode
// block (64 B) or page (4 KB) geometry.
var magic = map[token.Token]map[int64]string{
	token.SHR:     {6: "block shift", 12: "page shift"},
	token.SHL:     {6: "block shift", 12: "page shift"},
	token.AND:     {63: "block-offset mask", 4095: "page-offset mask"},
	token.AND_NOT: {63: "block-align mask", 4095: "page-align mask"},
	token.REM:     {64: "block modulus", 4096: "page modulus"},
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == memPath {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Package) {
			continue // tests build raw addresses to exercise the helpers
		}
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			check(pass, be)
			return true
		})
	}
	return nil
}

func check(pass *analysis.Pass, be *ast.BinaryExpr) {
	vals, ok := magic[be.Op]
	if !ok {
		return
	}
	constSide, varSide := be.Y, be.X
	v, isConst := pass.ConstInt(constSide)
	if !isConst && (be.Op == token.AND || be.Op == token.AND_NOT) {
		// Masks commute; accept the constant on the left too.
		constSide, varSide = be.X, be.Y
		v, isConst = pass.ConstInt(constSide)
	}
	what, suspicious := vals[v]
	if !isConst || !suspicious {
		return
	}
	if pass.RefersToPackage(constSide, memPath) {
		return // unit spelled via mem constants: contract honored
	}
	switch addressLike(pass, varSide) {
	case notAddress:
		return // bit-vector / index math, not address units
	case rawWord:
		if _, lit := ast.Unparen(constSide).(*ast.BasicLit); !lit {
			return // a constant named outside mem states a unit of its own
		}
	}
	pass.Reportf(be.OpPos, "raw %s (%s %d) on address-typed value outside %s; use the typed mem helper (Addr.BlockNumber, Addr.PageNumber, RegionConfig.BlockIndex, ...)",
		what, be.Op, v, memPath)
}

// operand classifies the value side of a flagged expression.
type operand int

const (
	notAddress operand = iota // signed or small integers: index math
	rawWord                   // plain uint64/uintptr: an address or any other word
	typedAddr                 // mem.Addr or mem.PC: an address for certain
)

// addressLike classifies e by the most address-like type it (or a
// subexpression) carries: mem.Addr / mem.PC, else plain uint64 — the
// representation every address in the simulator is stored in. Signed
// and small integer types are deliberately out of scope so footprint-bit
// and way-index math stays legal. A rawWord operand is flagged only with
// a literal constant: `vpn % leafPages` names its unit, while `a % 64`
// on a mem.Addr is flagged however the 64 is spelled.
func addressLike(pass *analysis.Pass, e ast.Expr) operand {
	kind := notAddress
	ast.Inspect(e, func(n ast.Node) bool {
		ex, ok := n.(ast.Expr)
		if !ok || kind == typedAddr {
			return kind != typedAddr
		}
		t := pass.TypeOf(ex)
		if t == nil {
			return true
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == memPath &&
				(obj.Name() == "Addr" || obj.Name() == "PC") {
				kind = typedAddr
				return false
			}
		}
		if basic, ok := t.Underlying().(*types.Basic); ok {
			if basic.Kind() == types.Uint64 || basic.Kind() == types.Uintptr {
				kind = rawWord
			}
		}
		return true
	})
	return kind
}
