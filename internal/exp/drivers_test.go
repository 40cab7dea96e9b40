package exp

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestCheckColoringRejectsBadOutputs feeds the twocoloring-gap output check
// (palette 2) a proper 2-coloring and then vectors that break each of its
// rules: a non-int64 output, a color outside {0,1}, and a monochromatic
// edge.
func TestCheckColoringRejectsBadOutputs(t *testing.T) {
	tr, err := graph.BuildPath(4)
	if err != nil {
		t.Fatal(err)
	}
	good := []any{int64(0), int64(1), int64(0), int64(1)}
	if _, err := checkColoring(tr, good, 2); err != nil {
		t.Fatalf("proper 2-coloring rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		outs []any
		want string
	}{
		{"wrong type", []any{int64(0), 1, int64(0), int64(1)}, "node 1 output is int"},
		{"nil output", []any{int64(0), int64(1), nil, int64(1)}, "node 2 output is <nil>"},
		{"color 2", []any{int64(0), int64(1), int64(2), int64(1)}, "node 2 color 2 outside [0,2)"},
		{"negative color", []any{int64(0), int64(-1), int64(0), int64(1)}, "node 1 color -1 outside [0,2)"},
		{"monochromatic", []any{int64(0), int64(1), int64(1), int64(0)}, "improper coloring on edge {1,2}"},
	} {
		_, err := checkColoring(tr, tc.outs, 2)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
