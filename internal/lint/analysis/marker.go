package analysis

import "strings"

// The suite's annotation comments all share one shape,
//
//	//domain:verb [argument...]
//
// — //lint:ignore, //conc:immutable and friends. ParseMarker is the
// single tokenizer behind every one of those vocabularies: each analyzer
// validates its own domain's verbs and argument grammar on top, but the
// "does this comment address the suite at all, and how does it split"
// question is answered in exactly one place (and fuzzed in exactly one
// place — see FuzzDirectiveParser).

// Marker is one parsed annotation comment, split but not validated: the
// owning analyzer decides whether the verb is known and the argument
// well-formed.
type Marker struct {
	// Domain is the namespace before the colon ("lint", "conc").
	Domain string
	// Verb is the word after the colon, up to the first space.
	Verb string
	// Arg is the remainder after the verb, space-trimmed. For most
	// domains this is the mandatory reason; for lint it is the analyzer
	// list followed by the reason.
	Arg string
}

// ParseMarker splits a comment's text into an annotation marker. It
// returns ok=false for anything that is not a line comment of the form
// //domain:verb..., where domain is one or more ASCII lowercase letters
// and verb is non-empty up to the first space. Directive comments never
// carry a space between "//" and the domain (matching the Go convention
// for machine-readable comments, //go:build et al.), so ordinary prose
// that happens to contain a colon does not parse.
func ParseMarker(text string) (Marker, bool) {
	rest, ok := strings.CutPrefix(text, "//")
	if !ok {
		return Marker{}, false
	}
	colon := strings.IndexByte(rest, ':')
	if colon <= 0 {
		return Marker{}, false
	}
	domain := rest[:colon]
	for i := 0; i < len(domain); i++ {
		if domain[i] < 'a' || domain[i] > 'z' {
			return Marker{}, false
		}
	}
	rest = rest[colon+1:]
	if rest == "" {
		return Marker{}, false
	}
	verb := rest
	arg := ""
	if sp := strings.IndexAny(rest, " \t"); sp >= 0 {
		verb, arg = rest[:sp], strings.TrimSpace(rest[sp+1:])
	}
	if verb == "" || strings.ContainsAny(verb, " \t") {
		return Marker{}, false
	}
	return Marker{Domain: domain, Verb: verb, Arg: arg}, true
}
