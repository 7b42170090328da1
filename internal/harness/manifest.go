package harness

import (
	"encoding/json"
	"fmt"
)

// Status is a cell's final disposition in one supervisor run.
type Status string

const (
	// StatusOK: the cell ran to completion in this run.
	StatusOK Status = "ok"
	// StatusResumed: the cell's result was loaded from a checkpoint; the
	// experiment was not re-run (Attempts stays 0).
	StatusResumed Status = "resumed"
	// StatusFailed: the cell's attempt failed, or its world could not be
	// built.
	StatusFailed Status = "failed"
	// StatusCancelled: the cell was in flight (or its world was being
	// built) when the campaign context died.
	StatusCancelled Status = "cancelled"
	// StatusSkipped: the drain arrived before the cell ever started.
	StatusSkipped Status = "skipped"
)

// Outcome is the machine-readable record of one cell: its identity, how
// it ended, how many attempts it consumed (0 if restored or never
// started, 1 if it ran), and — for failures — the
// taxonomy kind, the error text, and (for panics) the captured stack.
type Outcome struct {
	CellRef
	Status   Status  `json:"status"`
	Kind     Kind    `json:"kind,omitempty"`
	Err      string  `json:"error,omitempty"`
	Stack    string  `json:"stack,omitempty"`
	Attempts int     `json:"attempts"`
	WallMs   float64 `json:"wall_ms"`
}

// Manifest is the campaign's machine-readable summary, written atomically
// to <run-dir>/manifest.json at the end of every supervisor run —
// including drained and failed ones, which is the point: whatever
// happened, the run directory always says exactly which cells are done,
// which failed and why, and what a resume would re-run.
type Manifest struct {
	IDs      []string       `json:"experiments"`
	Seeds    []uint64       `json:"seeds"`
	Workers  int            `json:"workers"`
	Timeout  string         `json:"timeout,omitempty"`
	Watchdog string         `json:"watchdog,omitempty"`
	WallMs   float64        `json:"wall_ms"`
	Complete bool           `json:"complete"`
	ExitCode int            `json:"exit_code"`
	Counts   map[Status]int `json:"counts"`
	Outcomes []Outcome      `json:"outcomes"`
}

// ManifestName is the manifest's filename inside a run directory.
const ManifestName = "manifest.json"

func writeManifest(dir string, m Manifest) error {
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return fmt.Errorf("harness: encode manifest: %w", err)
	}
	return writeAtomic(dir, ManifestName, append(data, '\n'))
}
