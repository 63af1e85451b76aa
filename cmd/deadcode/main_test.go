package main

import (
	"strings"
	"testing"
)

var fixture = []string{"testdata/root", "testdata/second"}

func runGate(t *testing.T, allow string) []string {
	t.Helper()
	var out strings.Builder
	n, err := run(&out, allow, fixture)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if n != len(lines) {
		t.Fatalf("run reported %d findings, printed %d lines:\n%s", n, len(lines), out.String())
	}
	return lines
}

// TestReportsExactlyTheUnreached: the dead function, the helper reached only
// from it and the symbol only a _test.go references are reported; a method
// reached through an interface, a symbol the second module calls and an
// allowlisted symbol are not.
func TestReportsExactlyTheUnreached(t *testing.T) {
	got := runGate(t, "testdata/allow.txt")
	want := []string{
		"internal/lib/lib.go:14: internal/lib.Dead",
		"internal/lib/lib.go:17: internal/lib.onlyFromDead",
		"internal/lib/lib.go:20: internal/lib.TestOnly",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("report:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestStaleAllowlistFails: an allowlist line fails the run when its symbol
// has a non-test caller, does not exist, or carries no reason — and a line
// without a reason still suppresses nothing silently.
func TestStaleAllowlistFails(t *testing.T) {
	got := strings.Join(runGate(t, "testdata/stale.txt"), "\n")
	for _, want := range []string{
		"stale allowlist entry internal/lib.FromSecond: a non-test file reaches it",
		"stale allowlist entry internal/lib.Gone: no such symbol",
		"allowlist entry internal/lib.Dead gives no reason",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "internal/lib.Allowed") {
		t.Errorf("a valid allowlist line was reported:\n%s", got)
	}
}
