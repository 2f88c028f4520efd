package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// An unknown -exp must fail loudly and say what would have worked, not
// print nothing and succeed.
func TestUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-exp", "nosuch"}, &stdout, &stderr); got != 2 {
		t.Fatalf("exit status %d, want 2 (stderr %q)", got, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing", stdout.String())
	}
	for _, name := range []string{"fig4", "startup", "throughput", "overhead", "sgfa", "fanout", "sync", "transport", "recovery"} {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("stderr does not name runner %q: %q", name, stderr.String())
		}
	}
}

// -exp overhead prints the paper's §3.2 arithmetic: 16 internal nodes for
// 256 back-ends and 272 for 4096 at fan-out 16.
func TestOverheadRows(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-exp", "overhead"}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit status %d, want 0 (stderr %q)", got, stderr.String())
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(stdout.String(), "\n") {
		rows[strings.Join(strings.Fields(line), " ")] = true
	}
	for _, want := range []string{"256 16 16 6.25%", "4096 16 272 6.64%"} {
		if !rows[want] {
			t.Errorf("no row %q in:\n%s", want, stdout.String())
		}
	}
}

// A failing experiment still stops the CPU profile: the file holds a
// complete, gzip-framed profile rather than nothing.
func TestFailingExperimentKeepsCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pb")
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-exp", "fig4", "-scales", "x", "-cpuprofile", path}, &stdout, &stderr); got == 0 {
		t.Fatal("a bad -scales succeeded")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("profile is %d bytes, not gzip-framed", len(b))
	}
}
