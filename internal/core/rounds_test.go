package core

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
)

func TestRunRounds(t *testing.T) {
	c, o := pipelineFixture()
	var logBuf bytes.Buffer
	cfg := DefaultConfig()
	cfg.Log = slog.New(slog.NewTextHandler(&logBuf, nil))
	e := NewEnricher(c, o, cfg)

	rounds, err := e.RunRounds(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) == 0 {
		t.Fatal("no rounds ran")
	}
	// First round applies something on this fixture.
	if len(rounds[0].Applied) == 0 {
		t.Error("round 1 applied nothing")
	}
	// The loop stops once a round applies nothing; the last round may
	// be the empty one.
	last := rounds[len(rounds)-1]
	if len(rounds) < 3 && len(last.Applied) != 0 {
		t.Error("early stop without an empty round")
	}
	if err := o.Validate(); err != nil {
		t.Errorf("ontology invalid after rounds: %v", err)
	}
	// Logging happened.
	logs := logBuf.String()
	if !strings.Contains(logs, "enrichment round complete") {
		t.Errorf("missing round log: %q", logs)
	}
	if !strings.Contains(logs, "step I complete") {
		t.Errorf("missing step I log: %q", logs)
	}
}

func TestRunRoundsNoLogger(t *testing.T) {
	c, o := pipelineFixture()
	e := NewEnricher(c, o, DefaultConfig())
	if _, err := e.RunRounds(1); err != nil {
		t.Fatal(err) // nil logger must not panic
	}
}
