package qec

import (
	"repro/internal/circuit"
	"repro/internal/qx"
)

// zStabilizerIndices returns the indices (into Stabilizers) of the
// Z-type plaquettes, in layout order. Ancilla zi of CycleCircuit serves
// Stabilizers[zStabilizerIndices()[zi]].
func (sc *SurfaceCode) zStabilizerIndices() []int {
	var zs []int
	for si, s := range sc.Stabilizers {
		if s.Type == ZType {
			zs = append(zs, si)
		}
	}
	return zs
}

// CycleCircuit builds one circuit-level Z-syndrome extraction round as a
// pure Clifford circuit: data qubits 0..d²−1 hold the logical |0⟩, an
// identity layer on every data qubit gives a stochastic Pauli noise
// model one error-injection site per data qubit, and each Z plaquette
// gets an ancilla (qubit d²+zi) that is prepared, CNOT-coupled to its
// support and measured. The data qubits are measured last, so each shot
// yields both the syndrome and the actual error pattern.
//
// The circuit is Clifford throughout — under a tableau-compatible noise
// model (e.g. depolarizing) the stabilizer engine executes it in
// O(n²) per shot, which is what opens distance ≥ 7 (73 qubits at d=7)
// to direct Monte-Carlo on the simulator.
func (sc *SurfaceCode) CycleCircuit() *circuit.Circuit {
	nd := sc.NumDataQubits()
	zs := sc.zStabilizerIndices()
	c := circuit.New("surface_cycle", nd+len(zs))
	for q := 0; q < nd; q++ {
		c.I(q)
	}
	for zi, si := range zs {
		a := nd + zi
		c.PrepZ(a)
		for _, q := range sc.Stabilizers[si].Support {
			c.CNOT(q, a)
		}
		c.Measure(a)
	}
	for q := 0; q < nd; q++ {
		c.Measure(q)
	}
	return c
}

// CircuitLogicalErrorRate estimates the logical X error rate of one
// circuit-level ESM round under single-qubit depolarizing noise of
// probability p, executed on the given qx engine (nil selects the
// default) for the given number of shots. Each distinct measured
// outcome is decoded once: ancilla bits give the defect set, DecodeZ
// proposes a correction, and a shot fails when the residual error
// (measured data bits XOR correction) anticommutes with logical Z
// (odd overlap with column 0).
//
// Only the identity layer sees noise (CNOTs draw the two-qubit channel,
// which is off here), so the effective per-data-qubit bit-flip rate is
// 2p/3 — X and Y flip the bit, Z acts trivially on |0⟩.
func (sc *SurfaceCode) CircuitLogicalErrorRate(engine qx.Engine, p float64, shots int, seed int64) (float64, error) {
	c := sc.CycleCircuit()
	sim := qx.NewNoisyWithEngine(seed, &qx.NoiseModel{DepolarizingProb: p}, engine)
	res, err := sim.Run(c, shots)
	if err != nil {
		return 0, err
	}
	nd := sc.NumDataQubits()
	zs := sc.zStabilizerIndices()
	failures := 0
	tally := func(bit func(q int) bool, n int) {
		var defects []int
		for zi, si := range zs {
			if bit(nd + zi) {
				defects = append(defects, si)
			}
		}
		correction := sc.DecodeZ(defects)
		parity := false
		for r := 0; r < sc.D; r++ {
			q := r * sc.D
			if bit(q) != correction[q] {
				parity = !parity
			}
		}
		if parity {
			failures += n
		}
	}
	for k, n := range res.Outcomes() {
		tally(k.Bit, n)
	}
	return float64(failures) / float64(res.Shots), nil
}
