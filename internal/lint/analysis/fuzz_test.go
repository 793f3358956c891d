package analysis

import (
	"strings"
	"testing"
)

// FuzzDirectiveParser drives the single tokenizer behind every
// annotation vocabulary (//lint:ignore, //hot:alloc, //obs:write,
// //conc:immutable, ...) plus the suppression grammar layered on it. The
// parsers gate real enforcement — a crash or a grammar hole here is a
// linter that either dies on a hostile comment or silently accepts a
// malformed waiver — so the properties checked are the ones the
// analyzers rely on, not just "does not panic".
func FuzzDirectiveParser(f *testing.F) {
	for _, seed := range []string{
		"//lint:ignore detlint map iteration is sorted first",
		"//lint:file-ignore detlint,sharelint generated file",
		"//lint:ignore locklint",
		"//hot:alloc reused buffer grows to steady-state capacity",
		"//hot:path prefetch issue path",
		"//obs:write sampling epoch reset",
		"//vet:skip domain no analyzer owns",
		"//conc:immutable after construction",
		"//go:build san",
		"// ordinary prose with a colon: not a directive",
		"//lint:ignore",
		"//:verb no domain",
		"//UPPER:case domain",
		"//lint:\tignore tab verb",
		"//lint:ignore a,,b double comma",
		"//hot:alloc  двойной пробел", // non-ASCII arg, doubled space
		"//hot:alloc\x00nul",
		"//" + strings.Repeat("a", 1000) + ":b c",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		m, ok := ParseMarker(text)
		if ok {
			if m.Domain == "" || m.Verb == "" {
				t.Fatalf("ParseMarker(%q) ok with empty domain/verb: %+v", text, m)
			}
			for i := 0; i < len(m.Domain); i++ {
				if m.Domain[i] < 'a' || m.Domain[i] > 'z' {
					t.Fatalf("ParseMarker(%q) accepted non-lowercase domain %q", text, m.Domain)
				}
			}
			if strings.ContainsAny(m.Verb, " \t") {
				t.Fatalf("ParseMarker(%q) verb %q contains whitespace", text, m.Verb)
			}
			if m.Arg != strings.TrimSpace(m.Arg) {
				t.Fatalf("ParseMarker(%q) arg %q not trimmed", text, m.Arg)
			}
			// The split must be faithful to the input: the comment really
			// starts with //domain:verb.
			if !strings.HasPrefix(text, "//"+m.Domain+":"+m.Verb) {
				t.Fatalf("ParseMarker(%q) fabricated %q/%q", text, m.Domain, m.Verb)
			}
		}

		analyzers, reason, fileWide, sok := ParseSuppression(text)
		if sok {
			// A suppression IS a marker in the lint domain with one of the
			// two ignore verbs — anything else accepted here would let a
			// stray comment silence findings.
			if !ok || m.Domain != "lint" {
				t.Fatalf("ParseSuppression(%q) ok but ParseMarker disagrees (%+v, %v)", text, m, ok)
			}
			if m.Verb != "ignore" && m.Verb != "file-ignore" {
				t.Fatalf("ParseSuppression(%q) accepted verb %q", text, m.Verb)
			}
			if fileWide != (m.Verb == "file-ignore") {
				t.Fatalf("ParseSuppression(%q) fileWide=%v for verb %q", text, fileWide, m.Verb)
			}
			if len(analyzers) == 0 {
				t.Fatalf("ParseSuppression(%q) ok with no analyzers", text)
			}
			// The reason is the whole point of the mandatory-justification
			// policy: ok must imply one is on record.
			if strings.TrimSpace(reason) == "" {
				t.Fatalf("ParseSuppression(%q) ok with blank reason", text)
			}
		}

		// Both parsers are pure: same input, same answer.
		m2, ok2 := ParseMarker(text)
		if ok2 != ok || m2 != m {
			t.Fatalf("ParseMarker(%q) not deterministic", text)
		}
	})
}
