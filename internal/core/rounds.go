package core

import (
	"context"
	"fmt"
)

// RoundReport is the outcome of one iteration of RunRounds.
type RoundReport struct {
	Round   int
	Report  *Report
	Applied []Applied
}

// RunRounds runs the enrich-apply loop repeatedly: terms applied in
// round n become ontology anchors for round n+1, so a newly attached
// term can pull its own neighborhood in — the compounding behaviour an
// ontology maintenance workflow runs month over month. The loop stops
// early when a round applies nothing.
//
// Each round's Run executes steps II–IV on the configured worker pool
// (Config.Workers); rounds themselves stay sequential because round
// n+1's anchors depend on round n's Apply. RunRounds is
// RunRoundsContext with context.Background(): it cannot be cancelled.
func (e *Enricher) RunRounds(rounds int) ([]RoundReport, error) {
	//biolint:allow context-background documented uncancellable convenience wrapper
	return e.RunRoundsContext(context.Background(), rounds)
}

// RunRoundsContext is RunRounds with a caller-controlled lifetime.
// Cancellation never corrupts the ontology: each round's Apply runs
// only after its Run completed uncancelled, and the context is
// re-checked between Run and Apply — a cancelled round returns the
// rounds completed so far and applies nothing further.
func (e *Enricher) RunRoundsContext(ctx context.Context, rounds int) ([]RoundReport, error) {
	var out []RoundReport
	for r := 1; r <= rounds; r++ {
		report, err := e.RunContext(ctx)
		if err != nil {
			return out, fmt.Errorf("core: round %d: %w", r, err)
		}
		// The gap between Run returning and Apply mutating is the last
		// moment to observe cancellation before state changes.
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("core: round %d: %w", r, err)
		}
		_, apSpan := e.cfg.Obs.StartSpan(ctx, "enrich.apply")
		applied, err := e.Apply(report)
		apSpan.End()
		if err != nil {
			return out, fmt.Errorf("core: round %d apply: %w", r, err)
		}
		e.cfg.Obs.Counter("bioenrich_rounds_total").Inc()
		e.cfg.Obs.Counter("bioenrich_applied_total").Add(float64(len(applied)))
		if e.cfg.Log != nil {
			e.cfg.Log.Info("enrichment round complete",
				"round", r,
				"workers", e.cfg.workers(),
				"candidates", len(report.Candidates),
				"applied", len(applied),
				"ontology_terms", e.o.NumTerms())
		}
		out = append(out, RoundReport{Round: r, Report: report, Applied: applied})
		if len(applied) == 0 {
			break
		}
	}
	return out, nil
}
