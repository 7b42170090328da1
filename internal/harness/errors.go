package harness

import (
	"context"
	"errors"
	"fmt"

	"beatbgp/internal/par"
)

// Kind is the supervisor's error taxonomy: every failed cell is filed
// under exactly one kind, which the manifest's machine-readable outcome
// records carry.
type Kind string

const (
	// KindNone marks a successful cell.
	KindNone Kind = ""
	// KindPanic is a panic inside Experiment.Run, captured with its stack.
	KindPanic Kind = "panic"
	// KindTimeout is a per-attempt deadline (Config.Timeout) that fired.
	KindTimeout Kind = "timeout"
	// KindCancelled is a campaign-context cancellation — a drain.
	KindCancelled Kind = "cancelled"
	// KindBuildFailed is a scenario (world) build failure. It files every
	// pending cell of the seed whose world could not be built.
	KindBuildFailed Kind = "build-failed"
	// KindError is any other experiment error.
	KindError Kind = "error"
)

// Sentinel errors, one per failure kind. A *CellError matches the
// sentinel of its kind under errors.Is, so callers can branch on the
// taxonomy without string inspection:
//
//	if errors.Is(err, harness.ErrTimeout) { ... }
var (
	ErrPanic       = errors.New("harness: experiment panicked")
	ErrTimeout     = errors.New("harness: experiment timed out")
	ErrCancelled   = errors.New("harness: experiment cancelled")
	ErrBuildFailed = errors.New("harness: scenario build failed")

	// ErrPartial marks a campaign that finished with incomplete cells
	// (failures, cancellations, or cells never started before a drain).
	// It is the exit-code-2 signal: callers wrap it so deferred cleanup
	// still runs where a mid-flight os.Exit would have skipped it.
	ErrPartial = errors.New("harness: campaign incomplete")
)

func sentinel(k Kind) error {
	switch k {
	case KindPanic:
		return ErrPanic
	case KindTimeout:
		return ErrTimeout
	case KindCancelled:
		return ErrCancelled
	case KindBuildFailed:
		return ErrBuildFailed
	}
	return nil
}

// CellError is one cell's classified failure: which (experiment, seed)
// failed, how the failure is filed, and — for panics — the captured
// goroutine stack. It wraps the underlying error and additionally
// matches its kind's sentinel under errors.Is.
type CellError struct {
	Cell  CellRef
	Kind  Kind
	Stack string // panic stack, empty otherwise
	Err   error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("harness: experiment %s seed %d [%s]: %v",
		e.Cell.Experiment, e.Cell.Seed, e.Kind, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// Is matches the sentinel of the cell's kind (and nothing else; the
// wrapped chain is reachable through Unwrap).
func (e *CellError) Is(target error) bool {
	s := sentinel(e.Kind)
	return s != nil && target == s
}

// Classify files an error from an experiment run under the taxonomy:
// captured panics (par.PanicError, which runWithContext produces) are
// KindPanic, deadline errors KindTimeout, cancellations
// KindCancelled, everything else KindError. Build failures cannot be
// recognized from the error alone; the supervisor files them at the
// build site.
func Classify(err error) Kind {
	var pe *par.PanicError
	switch {
	case err == nil:
		return KindNone
	case errors.As(err, &pe):
		return KindPanic
	case errors.Is(err, context.DeadlineExceeded):
		return KindTimeout
	case errors.Is(err, context.Canceled):
		return KindCancelled
	}
	return KindError
}

// cellError classifies err for cell, extracting the panic stack when
// there is one.
func cellError(cell CellRef, err error) *CellError {
	kind := Classify(err)
	var stack string
	var pe *par.PanicError
	if errors.As(err, &pe) {
		stack = string(pe.Stack)
	}
	return &CellError{Cell: cell, Kind: kind, Stack: stack, Err: err}
}
