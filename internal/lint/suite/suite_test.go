package suite

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lint"
)

// TestSuiteCleanOnModule runs every analyzer over the whole module — the
// same sweep `go run ./cmd/tbon-lint ./...` and the CI lint job perform —
// so the clean-lint bar is enforced by plain `go test ./...` too. Any
// finding here is either a real contract violation to fix or a deliberate
// exception to annotate with //tbon:allow <analyzer> <reason>.
func TestSuiteCleanOnModule(t *testing.T) {
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	dirs, err := lint.ExpandPatterns(root, nil)
	if err != nil {
		t.Fatalf("expand ./...: %v", err)
	}
	if len(dirs) == 0 {
		t.Fatal("no packages found under module root")
	}
	fset := token.NewFileSet()
	diags, err := lint.LintDirs(fset, dirs, All())
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d.String(fset))
	}
}

// moduleRoot walks up from start to the directory containing go.mod.
func moduleRoot(start string) (string, error) {
	dir, err := filepath.Abs(start)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod at or above %s", start)
		}
		dir = parent
	}
}
