package bingo_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bingo/internal/trace"
)

// TestCLIBadInputExitsTwo builds bingosim, experiments, tracegen,
// traceinfo and simlint once and checks that each bad flag value,
// unknown flag, conflicting flag pair or stray positional argument is a
// usage error: exit status 2 and a stderr message naming it, before any
// simulation or analysis runs or output is written. One valid run per
// command guards against a check that rejects everything.
func TestCLIBadInputExitsTwo(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	for _, cmd := range []string{"bingosim", "experiments", "tracegen", "traceinfo", "simlint"} {
		out, err := exec.Command(goTool, "build", "-o", filepath.Join(dir, cmd), "./cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("go build ./cmd/%s: %v\n%s", cmd, err, out)
		}
	}
	run := func(args ...string) (int, string) {
		var stderr bytes.Buffer
		// A bad budget used to send traceinfo into an endless generator,
		// growing its record slice until killed; the deadline turns that
		// into a prompt failure. Every run here takes well under a second.
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		c := exec.CommandContext(ctx, filepath.Join(dir, args[0]), args[1:]...)
		c.Stderr = &stderr
		err := c.Run()
		var exit *exec.ExitError
		switch {
		case ctx.Err() != nil:
			t.Fatalf("%v: still running after 20s", args)
		case err == nil:
			return 0, stderr.String()
		case errors.As(err, &exit):
			return exit.ExitCode(), stderr.String()
		}
		t.Fatalf("%v: %v", args, err)
		return 0, ""
	}

	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"bingosim", "-prefetcher", "nope"}, "-prefetcher"},
		{[]string{"bingosim", "-warmup", "0"}, "-warmup"},
		{[]string{"bingosim", "-measure", "0"}, "-measure"},
		{[]string{"bingosim", "-epoch", "5000"}, "-epoch"},
		{[]string{"bingosim", "-cores", "1048576"}, "-cores"},
		{[]string{"bingosim", "-trace", filepath.Join(dir, "any.trc"), "-workload", "Zeus"}, "-workload"},
		{[]string{"experiments", "-j", "-3"}, "-j"},
		{[]string{"experiments", "-exp", "table1", "-j", "65"}, "-j"},
		{[]string{"experiments", "-epoch", "5000"}, "-epoch"},
		{[]string{"experiments", "-exp", ""}, "-exp"},
		{[]string{"experiments", "-exp", " , "}, "-exp"},
		{[]string{"tracegen", "-workload", "em3d", "-core", "-1", "-o", filepath.Join(dir, "bad.trc")}, "-core -1"},
		{[]string{"tracegen", "-workload", "em3d", "-n", "-5", "-o", filepath.Join(dir, "bad.trc")}, "-n -5"},
		{[]string{"tracegen", "-workload", "em3d", "-n", "0", "-o", filepath.Join(dir, "bad.trc")}, "-n 0"},
		{[]string{"tracegen", "-workload", "Zeus", "-core", "100000", "-o", filepath.Join(dir, "bad.trc")}, "-core 100000"},
		{[]string{"traceinfo", "-workload", "Zeus", "-n", "0"}, "-n 0"},
		{[]string{"traceinfo", "-workload", "Zeus", "-n", "-5"}, "-n -5"},
		{[]string{"traceinfo", "-workload", "Zeus", "-n", "1000", "-top", "-1"}, "-top -1"},
		// Positional arguments are never read, so a stray one used to be
		// ignored silently (bingosim Zeus simulated the default em3d).
		{[]string{"bingosim", "Zeus"}, `unexpected argument "Zeus"`},
		{[]string{"experiments", "-exp", "table1", "stray"}, `unexpected argument "stray"`},
		{[]string{"tracegen", "-workload", "em3d", "-o", filepath.Join(dir, "bad.trc"), "extra.trc"}, `unexpected argument "extra.trc"`},
		{[]string{"traceinfo", "run.trc"}, `unexpected argument "run.trc"`},
		// Checkpoint/resume is gone: its flags are unknown.
		{[]string{"bingosim", "-checkpoint-out", filepath.Join(dir, "run.ckpt")}, "-checkpoint-out"},
		{[]string{"simlint", "-only", "nosuch"}, "-only"},
		{[]string{"simlint", "-only", ","}, "-only"},
		// -sarif used to win silently, dropping the JSON report; a
		// bare -sarif and -json both want stdout.
		{[]string{"simlint", "-json", "-sarif"}, "-json and -sarif"},
	} {
		code, stderr := run(tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.flag) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming %s", tc.args, code, stderr, tc.flag)
		}
	}

	for _, valid := range [][]string{
		{"bingosim", "-workload", "em3d", "-prefetcher", "none", "-warmup", "1000", "-measure", "2000"},
		{"bingosim", "-workload", "em3d", "-prefetcher", "none", "-warmup", "1000", "-measure", "2000", "-epoch", "5000", "-telemetry-out", filepath.Join(dir, "ok.json")},
		{"tracegen", "-workload", "em3d", "-n", "1000", "-o", filepath.Join(dir, "ok.trc")},
		{"traceinfo", "-workload", "Zeus", "-n", "1000"},
		{"simlint", "-only", "unitlint", "./internal/mem"},
		{"simlint", "-json", "-sarif=" + filepath.Join(dir, "ok.sarif"), "-only", "unitlint", "./internal/mem"},
	} {
		if code, stderr := run(valid...); code != 0 {
			t.Errorf("%v: exit %d, stderr %q; want exit 0", valid, code, stderr)
		}
	}
	// An unwritable telemetry output, a missing trace and a trace with no
	// records are I/O errors, not usage errors: exit 1 naming the path,
	// before any simulation prints results. An empty trace used to replay
	// as instr=0 on every core and exit 0.
	missing := filepath.Join(dir, "no-such-dir", "out")
	empty := filepath.Join(dir, "empty.trc")
	writeEmptyTrace(t, empty)
	for _, tc := range []struct {
		args []string
		path string
	}{
		{[]string{"bingosim", "-workload", "em3d", "-warmup", "1000", "-measure", "2000", "-telemetry-out", missing}, missing},
		{[]string{"bingosim", "-workload", "em3d", "-warmup", "1000", "-measure", "2000", "-telemetry-csv", missing}, missing},
		{[]string{"bingosim", "-workload", "em3d", "-warmup", "1000", "-measure", "2000", "-trace-out", missing}, missing},
		{[]string{"bingosim", "-trace", empty, "-warmup", "1000", "-measure", "2000"}, empty},
		{[]string{"bingosim", "-trace", missing}, missing},
		{[]string{"traceinfo", "-trace", missing}, missing},
	} {
		var stdout, stderr bytes.Buffer
		c := exec.Command(filepath.Join(dir, tc.args[0]), tc.args[1:]...)
		c.Stdout, c.Stderr = &stdout, &stderr
		err := c.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(stderr.String(), tc.path) || stdout.Len() != 0 {
			t.Errorf("%v: err %v, stderr %q, stdout %q; want exit 1 naming %s and no stdout",
				tc.args, err, stderr.String(), stdout.String(), tc.path)
		}
	}

	// One simlint run gives the JSON report on stdout and the SARIF log
	// in the file -sarif names.
	if sarif, err := os.ReadFile(filepath.Join(dir, "ok.sarif")); err != nil || !bytes.Contains(sarif, []byte(`"version": "2.1.0"`)) {
		t.Errorf("simlint -json -sarif=file wrote no SARIF log (err %v): %q", err, sarif)
	}
}

// writeEmptyTrace writes a well-formed trace file that holds no records.
func writeEmptyTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f, 0)
	if err == nil {
		err = w.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
}
