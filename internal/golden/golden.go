// Package golden compares test output with checked-in golden files. A test
// binary that imports it accepts -update, which rewrites the files from the
// current output instead of comparing; CI never passes it, so a golden file
// changes only by a reviewed commit.
package golden

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from the current output")

// written records the files rewritten by this -update run: the first Check
// of a path writes it, and every later Check of the same path compares
// against what was written.
var written = map[string]bool{}

// Check compares got with the file at path byte for byte and fails t at the
// first differing line. label names the configuration that produced got.
func Check(t testing.TB, path, label, got string) {
	t.Helper()
	if *update && !written[path] {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		written[path] = true
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test -run %s -update)", err, t.Name())
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; ; i++ {
		if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
			g, w := "<end>", "<end>"
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("%s: output differs from %s at line %d:\n got: %q\nwant: %q", label, path, i+1, g, w)
		}
	}
}
