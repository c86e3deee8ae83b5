package qx

import (
	"runtime"

	"repro/internal/circuit"
	"repro/internal/quantum"
)

// optimizedEngine is the fast dense engine. It compiles each circuit once
// per run into a table of typed ops with every gate matrix precomputed —
// noisy multi-shot runs never call Gate.Matrix() inside the shot loop —
// and lowers the common gate set to specialized bit-twiddling kernels
// (X/Y/diagonal/CNOT/CZ/CPhase/SWAP and controlled single-qubit gates)
// instead of generic dense matrix multiplies. States it executes on have
// chunk-parallel kernel application enabled, and deterministic multi-shot
// sampling goes through the cumulative-distribution binary-search sampler.
//
// Every substitution is probability-preserving at the bit level, so the
// engine produces seeded counts identical to the reference engine — the
// differential tests in engine_test.go enforce this.
type optimizedEngine struct{}

// Name returns "optimized".
func (optimizedEngine) Name() string { return EngineOptimized }

// RunState executes the circuit once and returns the final state vector.
func (optimizedEngine) RunState(c *circuit.Circuit, env *ExecEnv) (*quantum.State, error) {
	prog, err := compileDense(c, env.Fusion && !env.noisy())
	if err != nil {
		return nil, err
	}
	st := newDenseState(c.NumQubits, env)
	prog.executeOnce(st, env)
	return st, nil
}

// Run executes the circuit for the given number of shots.
func (optimizedEngine) Run(c *circuit.Circuit, shots int, env *ExecEnv) (*Result, error) {
	noisy := env.noisy()
	prog, err := compileDense(c, env.Fusion && !noisy)
	if err != nil {
		return nil, err
	}
	res := newResult(c.NumQubits, shots)

	// Deterministic fast path: one execution, then O(log dim) sampling
	// per shot. The readout-error pass is statically a no-op here (no
	// noise), so it is hoisted out entirely.
	if !noisy && !prog.hasMeasure {
		st := newDenseState(c.NumQubits, env)
		prog.executeOnce(st, env)
		sampler := newCumSampler(st)
		for i := 0; i < shots; i++ {
			res.Counts[sampler.sample(env.Rng)]++
		}
		return res, nil
	}

	st := newDenseState(c.NumQubits, env)
	for i := 0; i < shots; i++ {
		st.Reset()
		bits, errs := prog.executeOnce(st, env)
		res.GateErrorsInjected += errs
		if prog.hasMeasure {
			// Readout error was already applied per measurement gate;
			// unmeasured qubits are never read out, so no register-wide
			// flip pass here.
			res.countBits(bits)
			continue
		}
		idx := st.MeasureAll(env.Rng)
		if noisy {
			idx = applyEnvReadoutError(env, idx, c.NumQubits)
		}
		res.Counts[idx]++
	}
	return res, nil
}

// newDenseState returns a fresh zero state with kernel parallelism from
// the environment's worker budget (machine-sized by default).
func newDenseState(n int, env *ExecEnv) *quantum.State {
	st := quantum.NewState(n)
	if env.KernelWorkers == 0 {
		st.AutoParallelism()
	} else {
		st.SetParallelism(env.KernelWorkers)
	}
	return st
}

// denseKind discriminates the optimized engine's op table.
type denseKind uint8

const (
	kGeneric    denseKind = iota // precomputed matrix via State.Apply
	kIdentity                    // identity gate: state untouched, noise still applies
	kDiag                        // single-qubit diagonal diag(d0, d1)
	kX                           // Pauli-X permutation
	kY                           // Pauli-Y
	kCNOT                        // controlled-NOT
	kCZ                          // controlled-Z
	kCPhase                      // controlled phase diag(1,1,1,d1)
	kSWAP                        // qubit exchange
	kControlled                  // controlled single-qubit matrix (crz, toffoli)
	kMeasure                     // projective measurement of qubits[0]
	kMeasureAll                  // measure every qubit
	kPrepZ                       // reset qubits[0] to |0>
	kWait                        // explicit idle (decoherence under noise)
	kNop                         // barrier, display
)

// denseOp is one compiled operation: the kind, its operands and any
// precomputed matrix or diagonal entries. Fused single-qubit runs become
// ordinary kGeneric ops with the product matrix attached — the typed
// replacement for the old magic-gate-name + Params-index encoding.
type denseOp struct {
	kind    denseKind
	qubits  []int
	mat     quantum.Matrix // kGeneric, kControlled
	d0, d1  complex128     // kDiag, kCPhase
	hasCond bool
	condBit int
	cycles  float64 // kWait
	fused   bool    // synthesized by fusion: exempt from per-gate noise
}

// denseProgram is a circuit compiled for the optimized engine.
type denseProgram struct {
	numQubits  int
	ops        []denseOp
	hasMeasure bool
}

// compileDense lowers a validated circuit into the engine's op table,
// fusing single-qubit runs when fusion is on (perfect mode only — with
// noise each physical gate must see its own error channel).
func compileDense(c *circuit.Circuit, fusion bool) (*denseProgram, error) {
	if err := denseFits(c); err != nil {
		return nil, err
	}
	prog := &denseProgram{numQubits: c.NumQubits, ops: make([]denseOp, 0, len(c.Gates))}
	if fusion {
		for _, eop := range fuseSingleQubitRuns(c.Gates) {
			if eop.fused != nil {
				prog.ops = append(prog.ops, denseOp{
					kind:   kGeneric,
					qubits: []int{eop.fusedQubit},
					mat:    *eop.fused,
					fused:  true,
				})
				continue
			}
			if err := prog.lower(eop.gate); err != nil {
				return nil, err
			}
		}
	} else {
		for _, g := range c.Gates {
			if err := prog.lower(g); err != nil {
				return nil, err
			}
		}
	}
	return prog, nil
}

// lower appends the compiled form of one gate, precomputing its matrix or
// diagonal entries from the same registry constructors the reference
// engine calls, so both engines apply bit-identical unitaries.
func (p *denseProgram) lower(g circuit.Gate) error {
	op := denseOp{qubits: g.Qubits, hasCond: g.HasCond, condBit: g.CondBit}
	switch g.Name {
	case circuit.OpMeasure:
		op.kind = kMeasure
		p.hasMeasure = true
	case circuit.OpMeasureAll:
		op.kind = kMeasureAll
		p.hasMeasure = true
	case circuit.OpPrepZ:
		op.kind = kPrepZ
	case circuit.OpWait:
		op.kind = kWait
		if len(g.Params) > 0 {
			op.cycles = g.Params[0]
		}
	case circuit.OpBarrier, circuit.OpDisplay:
		op.kind = kNop
	case "i":
		op.kind = kIdentity
	case "x":
		op.kind = kX
	case "y":
		op.kind = kY
	case "z", "s", "sdag", "t", "tdag", "rz", "phase":
		m, err := g.Matrix()
		if err != nil {
			return err
		}
		op.kind = kDiag
		op.d0, op.d1 = m.Data[0], m.Data[3]
	case "cnot":
		op.kind = kCNOT
	case "cz":
		op.kind = kCZ
	case "swap":
		op.kind = kSWAP
	case "cphase":
		m, err := g.Matrix()
		if err != nil {
			return err
		}
		op.kind = kCPhase
		op.d1 = m.Data[15]
	case "crz":
		// Controlled(RZ(θ)) applied as a controlled 2×2 kernel; the inner
		// matrix comes from the same constructor the registry embeds.
		op.kind = kControlled
		op.mat = quantum.RZ(g.Params[0])
	case "toffoli":
		op.kind = kControlled
		op.mat = quantum.X
	default:
		m, err := g.Matrix()
		if err != nil {
			return err
		}
		op.kind = kGeneric
		op.mat = m
	}
	p.ops = append(p.ops, op)
	return nil
}

// executeOnce runs the compiled ops on st, returning measured bits per
// qubit and the number of injected errors. It mirrors the reference
// engine's walk exactly — same gate order, same PRNG consumption points —
// differing only in how each unitary reaches the amplitudes.
func (p *denseProgram) executeOnce(st *quantum.State, env *ExecEnv) (map[int]int, int) {
	bits := map[int]int{}
	injected := 0
	noisy := env.noisy()
	for i := range p.ops {
		op := &p.ops[i]
		switch op.kind {
		case kMeasure:
			q := op.qubits[0]
			b := st.MeasureQubit(q, env.Rng)
			if noisy {
				b = flipReadoutBit(env, b)
			}
			bits[q] = b
		case kMeasureAll:
			for q := 0; q < p.numQubits; q++ {
				b := st.MeasureQubit(q, env.Rng)
				if noisy {
					b = flipReadoutBit(env, b)
				}
				bits[q] = b
			}
		case kPrepZ:
			q := op.qubits[0]
			if st.MeasureQubit(q, env.Rng) == 1 {
				st.ApplyX(q)
			}
		case kWait:
			if noisy {
				applyEnvWait(env, st, p.numQubits, op.cycles)
			}
		case kNop:
		default:
			if op.hasCond && bits[op.condBit] != 1 {
				continue
			}
			switch op.kind {
			case kIdentity:
				// State untouched; noise below still applies.
			case kX:
				st.ApplyX(op.qubits[0])
			case kY:
				st.ApplyY(op.qubits[0])
			case kDiag:
				st.ApplyDiag(op.qubits[0], op.d0, op.d1)
			case kCNOT:
				st.ApplyCNOT(op.qubits[0], op.qubits[1])
			case kCZ:
				st.ApplyCZ(op.qubits[0], op.qubits[1])
			case kCPhase:
				st.ApplyCPhase(op.qubits[0], op.qubits[1], op.d1)
			case kSWAP:
				st.ApplySWAP(op.qubits[0], op.qubits[1])
			case kControlled:
				n := len(op.qubits)
				st.ApplyControlledOne(op.mat, op.qubits[n-1], op.qubits[:n-1]...)
			case kGeneric:
				st.Apply(op.mat, op.qubits...)
			}
			if noisy && !op.fused {
				injected += applyEnvGateNoise(env, st, op.qubits)
			}
		}
	}
	return bits, injected
}

// shotWorkers returns the effective worker count for parallel shot
// batches: the machine's core count when workers <= 0, never more than
// the shot count.
func shotWorkers(workers, shots int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shots {
		workers = shots
	}
	return workers
}
