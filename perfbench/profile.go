package main

import (
	"bufio"
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// profileLayers are the buckets a CPU profile is split into, reported as
// <layer>.self_pct. The simulator's packages are bucketed by the first
// element under bingo/internal (so every prefetchers/* baseline lands in
// "prefetchers"); the Go runtime is one bucket; the benchmark's own
// decorators and the rest of the standard library each get one, so the
// shares add up to the whole profile.
var profileLayers = []string{
	"cpu", "cache", "dram", "vm", "sched", "system", "core", "prefetch",
	"prefetchers", "workloads", "trace", "harness", "runtime", "perfbench", "std",
}

// pprofTop runs `go tool pprof -top` on a CPU profile and returns its
// text output.
func pprofTop(ctx context.Context, profile string) (string, error) {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-symbolize=none",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profile)
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return "", fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(string(ee.Stderr)))
		}
		return "", fmt.Errorf("go tool pprof: %w", err)
	}
	return string(out), nil
}

// bucketTop sums the flat% column of `pprof -top` output per layer.
// Rows whose function belongs to no known layer are counted as "std".
func bucketTop(top string) (map[string]float64, error) {
	out := make(map[string]float64, len(profileLayers))
	for _, l := range profileLayers {
		out[l] = 0
	}
	inTable := false
	sc := bufio.NewScanner(strings.NewReader(top))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "flat" && fields[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(fields) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(fields[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		// The function name follows the five numeric columns. It may go on
		// past spaces (type arguments, "(inline)"), but its package is
		// always in the first field.
		out[layerOf(fields[5])] += pct
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inTable {
		return nil, fmt.Errorf("pprof output has no -top table")
	}
	return out, nil
}

// layerOf maps a fully qualified function name to its layer.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case strings.HasPrefix(pkg, "bingo/internal/"):
		first, _, _ := strings.Cut(strings.TrimPrefix(pkg, "bingo/internal/"), "/")
		for _, l := range profileLayers {
			if l == first {
				return l
			}
		}
		return "std"
	case pkg == "bingo/perfbench" || pkg == "main":
		return "perfbench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	default:
		return "std"
	}
}

// packageOf extracts the import path from a function name such as
// "bingo/internal/prefetch.(*Table[go.shape.uint64]).Lookup" or
// "runtime.mallocgc": the path ends at the first '.' after the last '/'
// that precedes any receiver or type-parameter bracket.
func packageOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
