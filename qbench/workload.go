package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/cqasm"
	"repro/internal/loadgen"
	"repro/internal/qaoa"
	"repro/internal/qubo"
	"repro/internal/target"
)

// Backend names of the default service's gate stacks.
const (
	perfect         = "perfect"
	superconducting = "superconducting"
	semiconducting  = "semiconducting"
)

// Workload names.
const (
	hotSubmit       = "hot_submit"
	coldCompile     = "cold_compile"
	variationalBind = "variational_bind"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{hotSubmit, coldCompile, variationalBind}

// Stream shape. Every constant here is part of the workload definition:
// changing one changes the op streams and their hashes.
const (
	// hot_submit: a working set of 16 programs, 12 on superconducting,
	// 2 on perfect and 2 on semiconducting (see hotProgram). Ops pick
	// uniformly from the set, so 75% of them go to superconducting and
	// the latency median falls inside that mode.
	hotSetSize    = 16
	hotSetSeed    = 1
	hotSCPrograms = 12
	hotPerfectEnd = 14
	// hotPerfectShots is the shot count of the perfect-stack programs;
	// the realistic stacks run 1 shot.
	hotPerfectShots = 64

	// cold_compile: an op re-sends one of the last coldLookback fresh
	// programs of its client with a drifted calibration table with
	// probability coldOverrideShare; every other op is a fresh program.
	coldOverrideShare = 0.125
	coldLookback      = 8
	// coldDrift bounds the per-entry calibration drift factor to
	// [1-coldDrift, 1+coldDrift].
	coldDrift = 0.1

	// variational_bind: a 6-qubit, 2-layer QAOA ansatz per client on the
	// perfect stack, every bind at the parallel shot threshold.
	ansatzQubits = 6
	ansatzLayers = 2
	bindShots    = core.DefaultParallelShots

	// warmSeed seeds the warm-up ops of every run, so set-up does the
	// same work whatever the workload seed.
	warmSeed = 1

	// hashOps is how many leading ops of each client stream the stream
	// hash covers; the stream is a pure function of (workload, seed,
	// client, index), so the prefix identifies it.
	hashOps = 256
)

// Seed-derivation tags, folded in first so the derived streams of
// different purposes never coincide.
const (
	tagWorkingSet uint64 = iota + 1
	tagOp
	tagProgram
	tagAnsatz
	tagKeep
	tagParity
	tagExact
)

// derive folds parts into seed with the splitmix64 finaliser, the same
// derivation internal/loadgen uses for its per-op seeds, and never
// returns 0 (the service reads seed 0 as "derive one for me").
func derive(seed int64, parts ...uint64) int64 {
	z := uint64(seed)
	for _, p := range parts {
		z ^= p + 0x9e3779b97f4a7c15
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
	}
	if z == 0 {
		return 1
	}
	return int64(z)
}

func rngFor(seed int64, parts ...uint64) *rand.Rand {
	return rand.New(rand.NewSource(derive(seed, parts...)))
}

// Op is one generated request: a submit (CQASM set) or a session bind
// (Values set). The service sees exactly these fields.
type Op struct {
	Client  int    `json:"client"`
	Index   int    `json:"index"`
	Backend string `json:"backend"`
	CQASM   string `json:"cqasm,omitempty"`
	// Qubits is the program's logical width: every result key has this
	// many bits.
	Qubits int   `json:"qubits"`
	Shots  int   `json:"shots"`
	Seed   int64 `json:"seed"`
	// Calibration is a cold_compile override op's drifted table; Source
	// is the index of the earlier op whose program it re-sends.
	Calibration *target.Calibration `json:"calibration,omitempty"`
	Source      int                 `json:"source,omitempty"`
	Values      map[string]float64  `json:"values,omitempty"`
}

// Override reports whether the op re-sends an earlier program with a
// calibration override.
func (o Op) Override() bool { return o.Calibration != nil }

// ansatz is one client's parametric session program.
type ansatz struct {
	CQASM   string   `json:"cqasm"`
	Symbols []string `json:"symbols"`
}

// stream generates the ops of one (workload, seed). Op(client, i) is a
// pure function of its arguments, so the clients, the warm-up, the
// traced replay and the tests all see the same ops.
type stream struct {
	workload string
	seed     int64
	set      []Op // hot_submit working set (Client/Index/Seed unset)
}

func newStream(workload string, seed int64) (*stream, error) {
	s := &stream{workload: workload, seed: seed}
	switch workload {
	case hotSubmit:
		for k := 0; k < hotSetSize; k++ {
			p, err := hotProgram(k)
			if err != nil {
				return nil, err
			}
			s.set = append(s.set, p)
		}
	case coldCompile, variationalBind:
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	return s, nil
}

// Op returns op i of the given client's stream.
func (s *stream) Op(client, i int) (Op, error) {
	var (
		op  Op
		err error
	)
	switch s.workload {
	case hotSubmit:
		rng := rngFor(s.seed, tagOp, uint64(client), uint64(i))
		op = s.set[rng.Intn(len(s.set))]
		op.Seed = derive(rng.Int63(), 1)
	case coldCompile:
		op, err = s.coldOp(client, i)
	case variationalBind:
		op, err = s.bindOp(client, i)
	}
	op.Client, op.Index = client, i
	return op, err
}

// Ansatz returns the session program of a variational_bind client.
func (s *stream) Ansatz(client int) (ansatz, error) {
	rng := rngFor(s.seed, tagAnsatz, uint64(client))
	// The coupling graph is a fixed ring, so the ansatz has the same
	// gates for every seed; the seed draws the coefficients.
	q := qubo.New(ansatzQubits)
	for i := 0; i < ansatzQubits; i++ {
		q.Add(i, i, rng.Float64()*2-1)
		q.Add(i, (i+1)%ansatzQubits, rng.Float64()*2-1)
	}
	c, err := qaoa.FromQUBO(q).BuildParametricCircuit(ansatzLayers)
	if err != nil {
		return ansatz{}, err
	}
	c.MeasureAll()
	return ansatz{CQASM: cqasm.PrintCircuit(c), Symbols: c.Symbols()}, nil
}

// Hash is the SHA-256 of the client's stream: the workload and seed,
// the client's session program when it has one, then the canonical JSON
// of its first hashOps ops, one per line.
func (s *stream) Hash(client int) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d %d\n", s.workload, s.seed, client)
	if s.workload == variationalBind {
		a, err := s.Ansatz(client)
		if err != nil {
			return "", err
		}
		if err := json.NewEncoder(h).Encode(a); err != nil {
			return "", err
		}
	}
	enc := json.NewEncoder(h)
	for i := 0; i < hashOps; i++ {
		op, err := s.Op(client, i)
		if err != nil {
			return "", err
		}
		if err := enc.Encode(op); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hotProgram is working-set program k. The working set is fixed: drawn
// from hotSetSeed, not the workload seed, so every seed's ops cost the
// same and runs with different seeds measure the same work; the
// workload seed draws each op's program and execution seed. The 12
// superconducting programs cover every class at 2, 3 and 4 qubits; the
// perfect pair is a GHZ (Clifford, so the auto engine dispatches it to
// the stabilizer tableau) and a QFT; the semiconducting pair a random
// circuit and a QAOA layer.
func hotProgram(k int) (Op, error) {
	rng := rngFor(hotSetSeed, tagWorkingSet, uint64(k))
	classes := []string{"ghz", "qft", "random", "qaoa"}
	class, qubits := classes[k%4], 2+k/4
	if k >= hotSCPrograms {
		qubits = 3
	}
	src, err := loadgen.BuildClassCircuit(class, qubits, 2, rng.Intn(1<<qubits), rng)
	if err != nil {
		return Op{}, err
	}
	op := Op{Backend: superconducting, Qubits: qubits, Shots: 1}
	switch {
	case k < hotSCPrograms:
	case k < hotPerfectEnd:
		op.Backend, op.Shots = perfect, hotPerfectShots
	default:
		op.Backend = semiconducting
	}
	op.CQASM, err = finishProgram(src, op.Backend, nil)
	return op, err
}

// coldOp is op i of a cold_compile client: a fresh program, or with
// probability coldOverrideShare (never among the first coldLookback ops)
// an earlier fresh program re-sent with a drifted calibration table.
func (s *stream) coldOp(client, i int) (Op, error) {
	rng := rngFor(s.seed, tagOp, uint64(client), uint64(i))
	override := i >= coldLookback && rng.Float64() < coldOverrideShare
	src := i
	if override {
		src = i - 1 - rng.Intn(coldLookback)
		for s.isColdOverride(client, src) {
			src--
		}
	}
	op, err := s.coldProgram(client, src)
	if err != nil {
		return Op{}, err
	}
	op.Seed = derive(rng.Int63(), 1)
	if override {
		op.Source = src
		op.Calibration = driftedCalibration(op.Backend, rng)
	}
	return op, nil
}

// isColdOverride repeats coldOp's first draw.
func (s *stream) isColdOverride(client, i int) bool {
	return i >= coldLookback && rngFor(s.seed, tagOp, uint64(client), uint64(i)).Float64() < coldOverrideShare
}

// coldProgram is the fresh program of cold_compile op (client, i): 3-5
// qubits of the qft, qaoa, random or ghz class on superconducting or
// semiconducting, led by an rz of a seeded angle so that no two programs
// share content (and so no op ever hits the full cache).
func (s *stream) coldProgram(client, i int) (Op, error) {
	rng := rngFor(s.seed, tagProgram, uint64(client), uint64(i))
	op := Op{Backend: superconducting, Shots: 1}
	if rng.Intn(2) == 1 {
		op.Backend = semiconducting
	}
	classes := []string{"qft", "qaoa", "random", "ghz"}
	class := classes[rng.Intn(len(classes))]
	op.Qubits = 3 + rng.Intn(3)
	src, err := loadgen.BuildClassCircuit(class, op.Qubits, 2, i, rng)
	if err != nil {
		return Op{}, err
	}
	theta := rng.Float64() * 2 * math.Pi
	op.CQASM, err = finishProgram(src, op.Backend, &theta)
	return op, err
}

// bindOp is bind i of a variational_bind client: seeded angles for every
// ansatz symbol (gammas in [0, 2π), betas in [0, π)).
func (s *stream) bindOp(client, i int) (Op, error) {
	a, err := s.Ansatz(client)
	if err != nil {
		return Op{}, err
	}
	rng := rngFor(s.seed, tagOp, uint64(client), uint64(i))
	op := Op{Backend: perfect, Qubits: ansatzQubits, Shots: bindShots, Values: map[string]float64{}}
	for _, sym := range a.Symbols {
		scale := math.Pi
		if sym[0] == 'g' {
			scale = 2 * math.Pi
		}
		op.Values[sym] = rng.Float64() * scale
	}
	op.Seed = derive(rng.Int63(), 1)
	return op, nil
}

// finishProgram rewrites a class circuit for its backend: an optional
// leading rz marker, and on superconducting the final measure_all
// replaced by one measure per program qubit. On the 17-qubit chip
// measure_all makes the micro-architecture simulate every qubit (tens of
// ms per shot); that cost is recorded by microarch.measure_all_us in the
// traced run instead of swamping every op.
func finishProgram(src, backend string, marker *float64) (string, error) {
	c, err := cqasm.ParseToCircuit(src)
	if err != nil {
		return "", err
	}
	out := circuit.New(c.Name, c.NumQubits)
	if marker != nil {
		out.RZ(0, *marker)
	}
	for _, g := range c.Gates {
		if g.Name == circuit.OpMeasureAll && backend == superconducting {
			for q := 0; q < c.NumQubits; q++ {
				out.Measure(q)
			}
			continue
		}
		out.AddGate(g)
	}
	return cqasm.PrintCircuit(out), nil
}

// driftedCalibration is the backend's preset calibration table with
// every error rate and coherence time scaled by its own factor in
// [1-coldDrift, 1+coldDrift]: what a client holding fresher calibration
// data than the service would send, generated without asking the
// service.
func driftedCalibration(backend string, rng *rand.Rand) *target.Calibration {
	dev := target.Superconducting()
	if backend == semiconducting {
		dev = target.Semiconducting()
	}
	cal := dev.Calibration.Clone()
	f := func() float64 { return 1 + coldDrift*(2*rng.Float64()-1) }
	for q := range cal.Qubits {
		qc := &cal.Qubits[q]
		qc.T1Ns *= f()
		qc.T2Ns *= f()
		qc.ReadoutError *= f()
		qc.SingleQubitError *= f()
	}
	for e := range cal.Edges {
		cal.Edges[e].TwoQubitError *= f()
	}
	return cal
}
