package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsBadScheduler: unknown schedulers, the removed actors
// engine and the removed -parallel shorthand all fail before any network
// is built, and the message names the valid choices.
func TestRunRejectsBadScheduler(t *testing.T) {
	for _, args := range [][]string{
		{"-scheduler", "actors"},
		{"-scheduler", "bogus"},
		{"-parallel"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit 0, want nonzero", args)
		}
		if msg := stderr.String(); !strings.Contains(msg, "sequential, workerpool") {
			t.Errorf("%v: stderr does not name the valid schedulers:\n%s", args, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote to stdout before validating flags:\n%s", args, stdout.String())
		}
	}
}

// TestRunElects drives one small election end to end on each scheduler.
func TestRunElects(t *testing.T) {
	for _, sched := range []string{"sequential", "workerpool"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-graph", "cycle", "-n", "8", "-proto", "floodmax", "-scheduler", sched}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", sched, code, stderr.String())
		}
		out := stdout.String()
		if !strings.Contains(out, "scheduler="+sched) || !strings.Contains(out, "success:  1/1") {
			t.Errorf("%s: unexpected output:\n%s", sched, out)
		}
	}
}
