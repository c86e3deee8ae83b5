package main

import (
	"errors"
	"maps"
	"slices"
	"testing"
	"time"

	"repro/internal/qx"
)

// replayedSample builds the sample a correct service would return for
// op i of client 0: the replay's own counts.
func replayedSample(t *testing.T, rp *replayer, workload string, pickOp func(Op) bool) sample {
	t.Helper()
	for i := 0; i < 256; i++ {
		op, err := rp.st.Op(0, i)
		if err != nil {
			t.Fatal(err)
		}
		if !pickOp(op) {
			continue
		}
		counts, err := rp.counts(op)
		if err != nil {
			t.Fatal(err)
		}
		now := time.Now()
		s := sample{Op: op}
		s.View.ID = "job-1"
		s.View.Status = "done"
		s.View.CacheHit = workload == hotSubmit
		s.View.SubmittedAt, s.View.StartedAt, s.View.FinishedAt = now, &now, &now
		s.View.Result = &struct {
			Counts map[string]int `json:"counts"`
			Shots  int            `json:"shots"`
		}{Counts: counts, Shots: op.Shots}
		return s
	}
	t.Fatal("no op matches")
	return sample{}
}

func TestCheckerRejectsTamperedResults(t *testing.T) {
	st, err := newStream(hotSubmit, 2)
	if err != nil {
		t.Fatal(err)
	}
	rp := newReplayer(st)
	good := replayedSample(t, rp, hotSubmit, func(op Op) bool { return op.Backend == superconducting })
	if err := checkSample(hotSubmit, &good); err != nil {
		t.Fatalf("untampered sample rejected: %v", err)
	}
	if err := rp.checkParity(&good); err != nil {
		t.Fatalf("untampered sample fails parity: %v", err)
	}

	var some string
	for bits := range good.View.Result.Counts {
		some = bits
	}
	tamper := map[string]func(s *sample){
		"failed job": func(s *sample) { s.View.Status = "failed" },
		"shots":      func(s *sample) { s.View.Result.Shots++ },
		"count sum":  func(s *sample) { s.View.Result.Counts[some]++ },
		"narrow key": func(s *sample) {
			c := s.View.Result.Counts[some]
			delete(s.View.Result.Counts, some)
			s.View.Result.Counts[some[1:]] = c
		},
		"non-bit key": func(s *sample) {
			c := s.View.Result.Counts[some]
			delete(s.View.Result.Counts, some)
			s.View.Result.Counts["2"+some[1:]] = c
		},
		"cache miss":    func(s *sample) { s.View.CacheHit = false },
		"client error":  func(s *sample) { s.Err = errors.New("connection reset") },
		"missing times": func(s *sample) { s.View.StartedAt = nil },
	}
	for name, f := range tamper {
		s := good
		res := *good.View.Result
		res.Counts = maps.Clone(good.View.Result.Counts)
		s.View.Result = &res
		f(&s)
		if err := checkSample(hotSubmit, &s); err == nil {
			t.Errorf("%s: tampered sample accepted", name)
		}
	}
}

// TestParityAndExactRejectMovedCounts moves counts between outcomes,
// keeping the sum and widths right, so only the replay parity and the
// exact oracle can notice.
func TestParityAndExactRejectMovedCounts(t *testing.T) {
	st, err := newStream(hotSubmit, 2)
	if err != nil {
		t.Fatal(err)
	}
	rp := newReplayer(st)
	ghz := replayedSample(t, rp, hotSubmit, func(op Op) bool { return op.Backend == perfect && op.CQASM == st.set[hotSCPrograms].CQASM })
	if err := rp.checkExact(&ghz); err != nil {
		t.Fatalf("untampered GHZ sample fails the exact check: %v", err)
	}
	// Put every shot on an outcome the GHZ state never yields.
	probs, err := exactProbabilities(ghz.Op.CQASM, nil)
	if err != nil {
		t.Fatal(err)
	}
	impossible := slices.IndexFunc(probs, func(p float64) bool { return p < 1e-12 })
	ghz.View.Result.Counts = map[string]int{qx.BitString(impossible, ghz.Op.Qubits): ghz.Op.Shots}
	if err := checkSample(hotSubmit, &ghz); err != nil {
		t.Fatalf("moved counts should pass the per-op check: %v", err)
	}
	if err := rp.checkParity(&ghz); err == nil {
		t.Error("parity accepted counts moved to another outcome")
	}
	if err := rp.checkExact(&ghz); err == nil {
		t.Error("exact check accepted a zero-probability outcome")
	}
}
