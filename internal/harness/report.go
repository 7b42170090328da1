package harness

import (
	"errors"
	"fmt"
	"strings"

	"beatbgp/internal/core"
	"beatbgp/internal/stats"
)

// Report is a supervised campaign's in-memory outcome: per-cell records,
// the manifest that was (or would be) persisted, and the completed
// results keyed by (experiment, seed).
type Report struct {
	IDs      []string
	Seeds    []uint64
	Outcomes []Outcome
	Manifest Manifest

	results map[resKey]core.Result
}

type resKey struct {
	id   string
	seed uint64
}

// Complete reports whether every cell finished (ran in this run or was
// resumed from a checkpoint).
func (r *Report) Complete() bool {
	for _, o := range r.Outcomes {
		if o.Status != StatusOK && o.Status != StatusResumed {
			return false
		}
	}
	return true
}

// ExitCode maps the report onto the process exit contract: 0 for a
// complete campaign, 2 for a partial one, and 1 — the hard-failure code
// — when no cell completed because no world could be built: a
// configuration a re-run or resume cannot finish either.
func (r *Report) ExitCode() int {
	switch {
	case r.Complete():
		return 0
	case r.unbuildable():
		return 1
	}
	return 2
}

// unbuildable reports whether every cell failed because its world could
// not be built.
func (r *Report) unbuildable() bool {
	for _, o := range r.Outcomes {
		if o.Status != StatusFailed || o.Kind != KindBuildFailed {
			return false
		}
	}
	return len(r.Outcomes) > 0
}

// Result returns the completed result for one cell.
func (r *Report) Result(id string, seed uint64) (core.Result, bool) {
	res, ok := r.results[resKey{id, seed}]
	return res, ok
}

// FinalResults assembles the renderable results in experiment order: the
// per-cell result when the campaign ran a single seed, or the mean/min/max
// aggregate when it swept several. Experiments with any incomplete cell
// are omitted — they are what Banner reports. Because aggregation folds
// the per-seed results in seed order, a resumed campaign's FinalResults
// render byte-identically to an uninterrupted one's.
func (r *Report) FinalResults() []core.Result {
	var out []core.Result
	for _, id := range r.IDs {
		perSeed := make([]core.Result, 0, len(r.Seeds))
		for _, seed := range r.Seeds {
			res, ok := r.results[resKey{id, seed}]
			if !ok {
				break
			}
			perSeed = append(perSeed, res)
		}
		switch {
		case len(perSeed) != len(r.Seeds):
			// incomplete experiment
		case len(r.Seeds) == 1:
			out = append(out, perSeed[0])
		default:
			out = append(out, aggregateSeeds(id, r.Seeds, perSeed))
		}
	}
	return out
}

// aggregateSeeds folds one experiment's per-seed Results into a summary
// whose every table cell is the mean/min/max over the seeds, the
// robustness check that separates a finding from a lucky draw. Series are
// not aggregated. perSeed[i] must be the result for seeds[i], and there
// must be at least one; cells are accumulated in seed order, so the
// output is byte-identical whether the per-seed results were just
// computed or replayed from a checkpoint.
func aggregateSeeds(id string, seeds []uint64, perSeed []core.Result) core.Result {
	type cellKey struct {
		table, row, col string
	}
	vals := make(map[cellKey]*stats.Dist)
	for _, r := range perSeed {
		for _, tb := range r.Tables {
			for _, row := range tb.Rows {
				for ci, col := range tb.Columns {
					k := cellKey{tb.Name, row.Label, col}
					if vals[k] == nil {
						vals[k] = &stats.Dist{}
					}
					vals[k].Add(row.Cells[ci], 1)
				}
			}
		}
	}
	proto := perSeed[0]
	out := core.Result{
		ID:    id + "@seeds",
		Title: fmt.Sprintf("%s across %d seeds", proto.Title, len(seeds)),
		Notes: append([]string(nil), proto.Notes...),
	}
	out.Notes = append(out.Notes,
		fmt.Sprintf("cells aggregated over seeds %v; rows absent in some seeds are averaged over the seeds that produced them", seeds))
	for _, tb := range proto.Tables {
		agg := stats.Table{Name: tb.Name + " (mean/min/max)"}
		for _, col := range tb.Columns {
			agg.Columns = append(agg.Columns, col+"_mean", col+"_min", col+"_max")
		}
		for _, row := range tb.Rows {
			cells := make([]float64, 0, len(tb.Columns)*3)
			for _, col := range tb.Columns {
				d := vals[cellKey{tb.Name, row.Label, col}]
				cells = append(cells, d.Mean(), d.Min(), d.Max())
			}
			agg.Rows = append(agg.Rows, stats.Row{Label: row.Label, Cells: cells})
		}
		out.Tables = append(out.Tables, agg)
	}
	return out
}

// FirstError reconstructs the typed error of the first failed cell (in
// campaign order), or nil when no cell failed outright. The result is a
// *CellError, so errors.Is against the kind sentinels (ErrPanic,
// ErrTimeout, ...) works on it.
func (r *Report) FirstError() error {
	for _, o := range r.Outcomes {
		if o.Status == StatusFailed {
			return &CellError{Cell: o.CellRef, Kind: o.Kind, Stack: o.Stack, Err: errors.New(o.Err)}
		}
	}
	return nil
}

// IncompleteCells returns the outcomes of every cell that did not finish,
// in campaign (seed-major, experiment-minor) order.
func (r *Report) IncompleteCells() []Outcome {
	var out []Outcome
	for _, o := range r.Outcomes {
		if o.Status != StatusOK && o.Status != StatusResumed {
			out = append(out, o)
		}
	}
	return out
}

// Banner renders the explicit partial-result marker for an incomplete
// campaign: which cells are missing and why, and how to finish the run.
// It returns "" for a complete campaign.
func (r *Report) Banner() string {
	bad := r.IncompleteCells()
	if len(bad) == 0 {
		return ""
	}
	var b strings.Builder
	done := len(r.Outcomes) - len(bad)
	fmt.Fprintf(&b, "== INCOMPLETE RUN: %d/%d cells completed ==\n", done, len(r.Outcomes))
	for _, o := range bad {
		switch o.Status {
		case StatusSkipped:
			fmt.Fprintf(&b, "  %-24s skipped (never started)\n", o.CellRef)
		case StatusCancelled:
			fmt.Fprintf(&b, "  %-24s cancelled after %d attempt(s)\n", o.CellRef, o.Attempts)
		default:
			fmt.Fprintf(&b, "  %-24s failed [%s] after %d attempt(s): %s\n",
				o.CellRef, o.Kind, o.Attempts, firstLine(o.Err))
		}
	}
	b.WriteString("re-run with -resume <run-dir> to finish the remaining cells\n")
	return b.String()
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
