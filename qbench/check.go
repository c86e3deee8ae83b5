package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/circuit"
	"repro/internal/cqasm"
	"repro/internal/density"
	"repro/internal/qx"
)

// Output-check sizes: how many completed ops each run re-derives through
// the replay (counts parity) and through the exact density-matrix
// oracle (perfect-stack ops only).
const (
	paritySample = 4
	exactSample  = 4
	// exactSigmas and exactSlack state the sampling bound of the exact
	// check: every outcome's count must lie within
	// exactSigmas·sqrt(N·p·(1−p)) + exactSlack of N·p. The slack covers
	// the Poisson tail of outcomes with tiny p, where the normal bound is
	// too tight.
	exactSigmas = 6
	exactSlack  = 4
)

// checkSample verifies one op's result as the client received it: the
// job finished done, its counts sum to the shots requested, every
// outcome is a bitstring as wide as the program, and the workload's
// cache premise held (every hot_submit op a full-cache hit, every
// cold_compile op a miss).
func checkSample(workload string, s *sample) error {
	if s.Err != nil {
		return s.Err
	}
	v := s.View
	if v.Status != "done" || v.Result == nil || v.StartedAt == nil || v.FinishedAt == nil {
		return fmt.Errorf("job %s: status %q without a complete result", v.ID, v.Status)
	}
	if v.Result.Shots != s.Op.Shots {
		return fmt.Errorf("job %s: result reports %d shots, %d requested", v.ID, v.Result.Shots, s.Op.Shots)
	}
	sum := 0
	for bits, c := range v.Result.Counts {
		if len(bits) != s.Op.Qubits || strings.Trim(bits, "01") != "" {
			return fmt.Errorf("job %s: outcome %q is not a %d-bit string", v.ID, bits, s.Op.Qubits)
		}
		if c <= 0 {
			return fmt.Errorf("job %s: outcome %q has count %d", v.ID, bits, c)
		}
		sum += c
	}
	if sum != s.Op.Shots {
		return fmt.Errorf("job %s: counts sum to %d, %d shots requested", v.ID, sum, s.Op.Shots)
	}
	switch {
	case workload == hotSubmit && !v.CacheHit:
		return fmt.Errorf("job %s: hot_submit op missed the compile cache", v.ID)
	case workload == coldCompile && v.CacheHit:
		return fmt.Errorf("job %s: cold_compile op hit the compile cache", v.ID)
	}
	return nil
}

// pick draws up to n of the candidate sample indices, seeded by the
// workload seed.
func pick(seed int64, tag uint64, candidates []int, n int) []int {
	idx := slices.Clone(candidates)
	rng := rand.New(rand.NewSource(derive(seed, tag)))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx[:min(n, len(idx))]
}

// checkParity compares a service result with the replay of the same
// (artefact, seed): the counts must be identical.
func (r *replayer) checkParity(s *sample) error {
	want, err := r.counts(s.Op)
	if err != nil {
		return fmt.Errorf("replay of job %s: %w", s.View.ID, err)
	}
	got := s.View.Result.Counts
	if len(got) != len(want) {
		return fmt.Errorf("job %s: %d outcomes, replay gives %d", s.View.ID, len(got), len(want))
	}
	for bits, c := range want {
		if got[bits] != c {
			return fmt.Errorf("job %s: outcome %s counted %d, replay counts %d", s.View.ID, bits, got[bits], c)
		}
	}
	return nil
}

// checkExact compares a perfect-stack result with the exact outcome
// distribution of its source circuit from the density-matrix simulator,
// within the stated sampling bound.
func (r *replayer) checkExact(s *sample) error {
	src, err := r.source(s.Op)
	if err != nil {
		return err
	}
	probs, err := exactProbabilities(src, s.Op.Values)
	if err != nil {
		return fmt.Errorf("job %s: exact oracle: %w", s.View.ID, err)
	}
	n := float64(s.Op.Shots)
	for idx, p := range probs {
		bits := qx.BitString(idx, s.Op.Qubits)
		got := float64(s.View.Result.Counts[bits])
		bound := exactSigmas*math.Sqrt(n*p*(1-p)) + exactSlack
		if math.Abs(got-n*p) > bound {
			return fmt.Errorf("job %s: outcome %s counted %.0f of %.0f, exact p=%.6f allows %.1f±%.1f",
				s.View.ID, bits, got, n, p, n*p, bound)
		}
	}
	return nil
}

// exactProbabilities runs the circuit, bound to vals and with its
// terminal measurements dropped, on the density-matrix simulator.
func exactProbabilities(src string, vals map[string]float64) ([]float64, error) {
	flat, err := cqasm.ParseToCircuit(src)
	if err != nil {
		return nil, err
	}
	if vals != nil {
		if flat, err = flat.Bind(vals); err != nil {
			return nil, err
		}
	}
	unitary := circuit.New(flat.Name, flat.NumQubits)
	measured := false
	for _, g := range flat.Gates {
		if g.Name == circuit.OpMeasure || g.Name == circuit.OpMeasureAll {
			measured = true
			continue
		}
		if measured {
			return nil, fmt.Errorf("gate %s after a measurement", g.Name)
		}
		unitary.AddGate(g)
	}
	sim := density.New(unitary.NumQubits)
	if err := sim.RunCircuit(unitary, nil); err != nil {
		return nil, err
	}
	return sim.Probabilities(), nil
}
