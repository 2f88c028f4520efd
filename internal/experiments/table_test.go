package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tb := newTable("Fig 4", "scale", "single", "flat", "deep")
	tb.addRow(16, 1.25, 0.5, 0.51)
	tb.addRow(324, 30.0, 9.111, time.Duration(2500*time.Millisecond))
	out := tb.String()
	for _, want := range []string{"## Fig 4", "scale", "single", "324", "1.250", "2.500s"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("table has %d lines:\n%s", len(lines), out)
	}
}
