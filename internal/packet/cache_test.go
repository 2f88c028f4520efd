package packet

import (
	"fmt"
	"sync"
	"testing"
)

// TestParseFormatConcurrent hammers the format-string cache the way many
// parallel streams do — the same handful of hot formats plus a churn of
// distinct ones (beyond the cache cap) — asserting every result is correct
// regardless of which goroutine won the cache race.
func TestParseFormatConcurrent(t *testing.T) {
	hot := []string{"%d", "%f", "%d %s", "%af", "%d %d %s %s %s %ad"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f := hot[i%len(hot)]
				dirs, err := ParseFormat(f)
				if err != nil {
					t.Errorf("ParseFormat(%q): %v", f, err)
					return
				}
				if len(dirs) == 0 {
					t.Errorf("ParseFormat(%q) returned no directives", f)
					return
				}
				// Cold formats churn past the cache cap concurrently.
				cold := fmt.Sprintf("%%d %%s %%a%c", "cdf"[i%3])
				if _, err := ParseFormat(cold + " %d"); err != nil {
					t.Errorf("ParseFormat cold: %v", err)
					return
				}
				if _, err := ParseFormat(fmt.Sprintf("%%x%d", g*1000+i)); err == nil {
					t.Error("malformed format accepted")
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// The winners must all have parsed identically: spot-check a hot one.
	dirs, err := ParseFormat("%d %s")
	if err != nil || len(dirs) != 2 || dirs[0] != DirInt || dirs[1] != DirString {
		t.Fatalf("hot format parsed to %v (%v)", dirs, err)
	}
}

// ParseFormat parses a format string into its directives. The returned
// slice may be shared with other callers and must not be modified.
func ParseFormat(format string) ([]Directive, error) {
	fd, err := lookupFormat(format)
	if err != nil {
		return nil, err
	}
	return fd.dirs, nil
}
