package bingo_test

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIBadInputExitsTwo builds bingosim and experiments once and
// checks that each bad flag value is a usage error: exit status 2 and a
// stderr message naming the flag, before any simulation runs.
func TestCLIBadInputExitsTwo(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	for _, cmd := range []string{"bingosim", "experiments"} {
		out, err := exec.Command(goTool, "build", "-o", filepath.Join(dir, cmd), "./cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("go build ./cmd/%s: %v\n%s", cmd, err, out)
		}
	}
	run := func(args ...string) (int, string) {
		var stderr bytes.Buffer
		c := exec.Command(filepath.Join(dir, args[0]), args[1:]...)
		c.Stderr = &stderr
		err := c.Run()
		var exit *exec.ExitError
		switch {
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
		{[]string{"experiments", "-j", "-3"}, "-j"},
	} {
		code, stderr := run(tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.flag) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming %s", tc.args, code, stderr, tc.flag)
		}
	}

	valid := []string{"bingosim", "-workload", "em3d", "-prefetcher", "none", "-warmup", "1000", "-measure", "2000"}
	if code, stderr := run(valid...); code != 0 {
		t.Errorf("%v: exit %d, stderr %q; want exit 0", valid, code, stderr)
	}
}
