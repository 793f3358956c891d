// Command simlint runs the simulator's invariant suite — detlint,
// unitlint, paramlint, errlint, sharelint, sanlint — over the
// repository. It is the project-specific complement to go vet: the
// analyzers encode contracts (determinism, address-unit safety,
// parameter provenance, error handling, shared-state documentation,
// sanitizer gating) that generic tooling cannot know about. The
// allocation-free hot path and telemetry purity are checked by running
// the simulator, in tests (DESIGN.md §10).
//
// Usage:
//
//	simlint [-only name,name] [-json] [-sarif[=file]] [-tests] [-san] [-unused-suppressions] [-list] [packages]
//
// Packages default to ./... relative to the enclosing module. By default
// the suite analyzes test files too (-tests) and runs a second pass under
// the `san` build tag (-san) so the sanitizer's gated files are covered;
// disable either for a faster partial run. -json emits a structured
// report that includes suppressed findings; -sarif emits a SARIF 2.1.0
// log for code-scanning upload in place of the report, and -sarif=file
// writes it to file beside the report, so one run can give both (-json
// and a bare -sarif both want stdout and exit 2);
// -unused-suppressions reports stale
// //lint: directives — including any that name an analyzer the suite
// does not have — as findings. Exit status is 0 when no
// actionable findings are reported, 1 on findings, 2 on usage or load
// errors. Suppress a single finding with
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or the line above it, or a whole file with
// //lint:file-ignore. The reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"bingo/internal/lint"
	"bingo/internal/lint/analysis"
)

func main() {
	only := flag.String("only", "", "comma-separated subset of analyzers to run")
	list := flag.Bool("list", false, "list the analyzers in the suite and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON (includes suppressed findings, marked)")
	var sarifOut sarifFlag
	flag.Var(&sarifOut, "sarif", "emit findings as SARIF 2.1.0 for code-scanning upload; `=file` writes them to file beside the report")
	tests := flag.Bool("tests", true, "also analyze _test.go compilation units")
	san := flag.Bool("san", true, "also analyze the -tags=san build configuration")
	unused := flag.Bool("unused-suppressions", false, "report //lint: directives that no longer suppress anything")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: simlint [-only name,name] [-json] [-sarif[=file]] [-tests] [-san] [-unused-suppressions] [-list] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Suite() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-13s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *jsonOut && sarifOut.on && sarifOut.file == "" {
		fmt.Fprintln(os.Stderr, "simlint: -json and -sarif both write to stdout; use -sarif=file for the SARIF log")
		os.Exit(2)
	}
	suite := lint.Suite()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range suite {
			byName[a.Name] = a
		}
		suite = suite[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "simlint: -only: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			suite = append(suite, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	var report, sarif io.Writer = os.Stdout, nil
	var sarifFile *os.File
	if sarifOut.on {
		if sarifOut.file == "" {
			report, sarif = io.Discard, os.Stdout
		} else {
			if sarifFile, err = os.Create(sarifOut.file); err != nil {
				fmt.Fprintln(os.Stderr, "simlint:", err)
				os.Exit(2)
			}
			sarif = sarifFile
		}
	}
	n, err := lint.Check(report, root, patterns, lint.Options{
		Analyzers:          suite,
		Tests:              *tests,
		San:                *san,
		JSON:               *jsonOut,
		SARIF:              sarif,
		UnusedSuppressions: *unused,
	})
	if sarifFile != nil {
		if cerr := sarifFile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// sarifFlag is -sarif: a boolean when bare (the SARIF log replaces the
// report on stdout), or -sarif=file to write the log to file.
type sarifFlag struct {
	on   bool
	file string
}

func (f *sarifFlag) String() string { return f.file }

// IsBoolFlag lets -sarif stand alone, so a bare -sarif never swallows
// the package pattern after it.
func (f *sarifFlag) IsBoolFlag() bool { return true }

func (f *sarifFlag) Set(v string) error {
	if b, err := strconv.ParseBool(v); err == nil {
		f.on, f.file = b, ""
		return nil
	}
	f.on, f.file = true, v
	return nil
}
