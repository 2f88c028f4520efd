// Machine-readable result emission: every experiment's typed rows wrap in
// a small envelope so tbon-bench -json can record the perf trajectory
// (BENCH_*.json) per change instead of scraping tables.
package experiments

import (
	"encoding/json"
	"io"
	"runtime"
	"time"
)

// Report is one experiment's machine-readable result envelope. Rows is the
// experiment's own row slice (ThroughputRow, BatchingRow, ...), marshalled
// with its exported field names; durations are nanoseconds, rates are
// per-second floats, exactly as the types declare them.
type Report struct {
	// Experiment is the tbon-bench -exp name that produced the rows.
	Experiment string `json:"experiment"`
	// RecordedAt stamps the run (UTC).
	RecordedAt time.Time `json:"recorded_at"`
	// GoMaxProcs records the parallelism the run had available — the
	// knob the stream-sharded data plane scales with.
	GoMaxProcs int `json:"gomaxprocs"`
	// Rows carries the per-experiment result rows.
	Rows any `json:"rows"`
}

// NewReport stamps rows with the run environment.
func NewReport(experiment string, rows any) Report {
	return Report{
		Experiment: experiment,
		RecordedAt: time.Now().UTC(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Rows:       rows,
	}
}

// WriteJSON emits the reports as one indented JSON array, the BENCH_*.json
// format. A nil slice (no experiment matched the selection) encodes as an
// empty array, not null, so consumers always see the documented shape.
func WriteJSON(w io.Writer, reports []Report) error {
	if reports == nil {
		reports = []Report{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}
