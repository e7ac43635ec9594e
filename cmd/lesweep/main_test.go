package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags: flags no sweep can run with exit 2 before any
// worker starts, name the offending flag, and write no artifact.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-workers", "0"}, "-workers"},
		{[]string{"-workers", "-3"}, "-workers"},
		{[]string{"-profile", "bogus"}, "-profile"},
		{[]string{"-local=false"}, "-exec"},
		{[]string{"-no-such-flag"}, "no-such-flag"},
	} {
		out := filepath.Join(t.TempDir(), "BENCH_dist.json")
		var stdout, stderr bytes.Buffer
		if code := run(append(c.args, "-json", out), &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stderr does not name %s:\n%s", c.args, c.want, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote to stdout:\n%s", c.args, stdout.String())
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%v: artifact written (stat err %v)", c.args, err)
		}
	}
}
