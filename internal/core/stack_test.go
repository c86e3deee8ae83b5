package core

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/microarch"
	"repro/internal/openql"
	"repro/internal/qx"
)

func bell() *openql.Program {
	p := openql.NewProgram("bell", 2)
	p.AddKernel(openql.NewKernel("entangle", 2).H(0).CNOT(0, 1).Measure(0).Measure(1))
	return p
}

func TestPerfectStackBell(t *testing.T) {
	s := NewPerfect(2, 1)
	rep, err := s.Execute(bell(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EQASM != "" || rep.Trace != nil {
		t.Error("perfect stack should not touch the micro-architecture")
	}
	p00 := rep.Result.Probability(0)
	p11 := rep.Result.Probability(3)
	if math.Abs(p00-0.5) > 0.05 || math.Abs(p11-0.5) > 0.05 {
		t.Errorf("Bell stats p00=%v p11=%v", p00, p11)
	}
	if !strings.Contains(rep.CQASM, "cnot") {
		t.Error("cQASM artefact missing")
	}
	if rep.WallNs <= 0 {
		t.Error("no modelled wall time")
	}
}

func TestSuperconductingStackBell(t *testing.T) {
	s := NewSuperconducting(2)
	const shots = 500
	rep, err := s.Execute(bell(), shots)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EQASM == "" || rep.Trace == nil {
		t.Fatal("realistic stack must produce eQASM and a pulse trace")
	}
	// Realistic qubits: correct outcomes dominate but errors exist. The
	// Bell pair routes through Surface-17 ancillas (data qubits are not
	// directly coupled), so several noisy CZs are involved.
	good := rep.Result.Counts[0] + rep.Result.Counts[3]
	if good == shots {
		t.Error("no errors on realistic qubits — noise not applied")
	}
	if float64(good)/shots < 0.5 {
		t.Errorf("too noisy: %d/%d correlated outcomes", good, shots)
	}
	if !strings.Contains(rep.EQASM, "bs ") {
		t.Error("eQASM bundles missing")
	}
	if rep.Mapping == nil {
		t.Error("Surface-17 stack should report mapping")
	}
}

func TestSemiconductingRetarget(t *testing.T) {
	// The same program runs on the semiconducting stack; wall-clock per
	// shot must be longer (100 ns cycles vs 20 ns).
	scRep, err := NewSuperconducting(3).Execute(bell(), 100)
	if err != nil {
		t.Fatal(err)
	}
	semiRep, err := NewSemiconducting(3).Execute(bell(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if semiRep.WallNs <= scRep.WallNs {
		t.Errorf("semiconducting (%d ns) should be slower than superconducting (%d ns)",
			semiRep.WallNs, scRep.WallNs)
	}
}

func TestStackRejectsOversizedProgram(t *testing.T) {
	p := openql.NewProgram("big", 64)
	p.AddKernel(openql.NewKernel("k", 64).H(63))
	if _, err := NewSuperconducting(1).Execute(p, 10); err == nil {
		t.Error("64-qubit program accepted on 17-qubit stack")
	}
}

func TestStackEngineOption(t *testing.T) {
	// The same seeded program must yield identical counts on both engines,
	// across the perfect and the realistic stack.
	for _, build := range []func() *Stack{
		func() *Stack { return NewPerfect(2, 7) },
		func() *Stack { return NewSuperconducting(7) },
	} {
		ref := build()
		ref.Engine = qx.EngineReference
		opt := build()
		opt.Engine = qx.EngineOptimized
		repRef, err := ref.Execute(bell(), 300)
		if err != nil {
			t.Fatal(err)
		}
		repOpt, err := opt.Execute(bell(), 300)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(repRef.Result.Counts, repOpt.Result.Counts) {
			t.Errorf("stack %s: engines diverge: %v vs %v",
				ref.Name, repRef.Result.Counts, repOpt.Result.Counts)
		}
		if ref.Fingerprint() == opt.Fingerprint() {
			t.Errorf("stack %s: fingerprint does not include the engine", ref.Name)
		}
		if !strings.Contains(opt.Fingerprint(), "eng=optimized") {
			t.Errorf("fingerprint %q lacks engine tag", opt.Fingerprint())
		}
		// Compilation is engine-independent, so the compile-cache half of
		// the key must not fragment across engines.
		if ref.CompileFingerprint() != opt.CompileFingerprint() {
			t.Errorf("stack %s: compile fingerprint varies with engine", ref.Name)
		}
	}
	// The default engine is spelled out so "" and the default name key the
	// compile cache identically.
	def := NewPerfect(2, 7)
	named := NewPerfect(2, 7)
	named.Engine = qx.DefaultEngine
	if def.Fingerprint() != named.Fingerprint() {
		t.Error("empty engine and default engine fingerprint differently")
	}
}

func TestStackUnknownEngine(t *testing.T) {
	s := NewPerfect(2, 1)
	s.Engine = "warp-drive"
	if _, err := s.Execute(bell(), 10); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestStackParallelShots(t *testing.T) {
	// Force the parallel-batch path with a tiny threshold on both stack
	// modes and check the merged statistics stay coherent.
	perfect := NewPerfect(2, 11)
	perfect.ParallelShots = 8
	rep, err := perfect.Execute(bell(), 64)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for idx, n := range rep.Result.Counts {
		if idx != 0 && idx != 3 {
			t.Errorf("impossible Bell outcome %d", idx)
		}
		total += n
	}
	if total != 64 {
		t.Errorf("parallel perfect run merged %d shots, want 64", total)
	}

	noisy := NewSuperconducting(11)
	noisy.ParallelShots = 8
	repN, err := noisy.Execute(bell(), 64)
	if err != nil {
		t.Fatal(err)
	}
	totalN := 0
	for _, n := range repN.Result.Counts {
		totalN += n
	}
	if totalN != 64 {
		t.Errorf("parallel realistic run merged %d shots, want 64", totalN)
	}

	// Negative disables the threshold entirely.
	off := NewPerfect(2, 11)
	off.ParallelShots = -1
	if _, err := off.Execute(bell(), 64); err != nil {
		t.Fatal(err)
	}
}

func TestPerfectVsRealisticFidelity(t *testing.T) {
	// E2: the same logic on both stacks; perfect gives ideal stats,
	// realistic degrades — the paper's Fig 2 distinction.
	ghz := openql.NewProgram("ghz4", 4)
	k := openql.NewKernel("g", 4).H(0).CNOT(0, 1).CNOT(1, 2).CNOT(2, 3).
		Measure(0).Measure(1).Measure(2).Measure(3)
	ghz.AddKernel(k)

	perfect, err := NewPerfect(4, 5).Execute(ghz, 400)
	if err != nil {
		t.Fatal(err)
	}
	if perfect.Result.Counts[0]+perfect.Result.Counts[15] != 400 {
		t.Error("perfect GHZ has spurious outcomes")
	}
	realistic, err := NewSuperconducting(5).Execute(ghz, 400)
	if err != nil {
		t.Fatal(err)
	}
	goodR := realistic.Result.Counts[0] + realistic.Result.Counts[15]
	if goodR >= 400 {
		t.Error("realistic GHZ shows no degradation")
	}
}

// CompileFingerprint must separate every compile-relevant knob with an
// explicit field — no two distinct configurations may alias — while
// excluding execution-only settings (engine, seed, shots parallelism).
func TestCompileFingerprintExplicitFields(t *testing.T) {
	base := func() *Stack { return NewPerfect(4, 1) }
	mutations := []struct {
		name string
		mut  func(s *Stack)
	}{
		{"optimize", func(s *Stack) { s.Optimize = !s.Optimize }},
		{"policy", func(s *Stack) { s.Policy = compiler.ALAP }},
		{"placement", func(s *Stack) { s.Mapping.Placement = compiler.GreedyPlacement }},
		{"lookahead", func(s *Stack) { s.Mapping.Lookahead = true }},
		{"lookahead-window", func(s *Stack) { s.Mapping.LookaheadWindow = 9 }},
		{"passes", func(s *Stack) { s.Passes = "decompose,schedule" }},
	}
	ref := base().CompileFingerprint()
	seen := map[string]string{"": ref}
	for _, m := range mutations {
		s := base()
		m.mut(s)
		fp := s.CompileFingerprint()
		if fp == ref {
			t.Errorf("%s: mutation does not change the compile fingerprint", m.name)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s aliases %q: %s", m.name, prev, fp)
		}
		seen[fp] = m.name
	}
	// Execution-only settings must NOT change the compile fingerprint —
	// the compile cache would needlessly fragment.
	s := base()
	s.Engine = "reference"
	s.Seed = 999
	s.ParallelShots = 1
	s.KernelWorkers = 3
	if s.CompileFingerprint() != ref {
		t.Error("execution-only settings leaked into the compile fingerprint")
	}
	if s.Fingerprint() == base().Fingerprint() {
		t.Error("engine missing from the full fingerprint")
	}
	// Canonicalisation: an explicit spec equal to the resolved default
	// must share the fingerprint (and thus cache entries) with the
	// default-configured stack, and Optimize is irrelevant once an
	// explicit spec overrides it.
	c := base()
	c.Passes = compiler.DefaultPassSpec(c.Optimize)
	if c.CompileFingerprint() != ref {
		t.Error("explicit default spec fragments the compile fingerprint")
	}
	c.Optimize = !c.Optimize
	if c.CompileFingerprint() != ref {
		t.Error("Optimize leaked into the fingerprint despite an explicit pass spec")
	}
}

// Stack.Passes threads through Compile and the report carries the
// per-pass metrics end to end.
func TestStackPassesOption(t *testing.T) {
	s := NewPerfect(3, 1)
	s.Passes = "decompose,fold-rotations,optimize,schedule"
	rep, err := s.Execute(bell(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compile == nil || rep.Compile.PassSpec != s.Passes {
		t.Fatalf("compile report missing or wrong spec: %+v", rep.Compile)
	}
	if len(rep.Compile.Passes) != 4 {
		t.Errorf("%d pass metrics, want 4", len(rep.Compile.Passes))
	}

	s.Passes = "optimize"
	if _, err := s.Execute(bell(), 8); err == nil {
		t.Error("schedule-less pass spec accepted")
	}
	s.Passes = "no-such-pass"
	if _, err := s.Execute(bell(), 8); err == nil {
		t.Error("unknown pass spec accepted")
	}
}

// The realistic path reports the execution diagnostics of the shots it
// ran through the micro-architecture, serial and in parallel batches.
func TestRealisticResultCarriesDiagnostics(t *testing.T) {
	s := NewSuperconducting(3)
	compiled, err := s.Compile(bell())
	if err != nil {
		t.Fatal(err)
	}
	for _, threshold := range []int{-1, 8} {
		s.ParallelShots = threshold
		rep, err := s.RunCompiled(compiled, 2, 16, 3)
		if err != nil {
			t.Fatal(err)
		}
		if res := rep.Result; res.Batches < 1 || res.ElapsedNs <= 0 {
			t.Errorf("ParallelShots=%d: Batches=%d ElapsedNs=%d, want both positive", threshold, res.Batches, res.ElapsedNs)
		}
	}
}

// A stack copy with a different microcode table that runs an artefact
// another stack already ran reports its own trace: its configuration
// name, codewords and timing, exactly as on a fresh compile.
func TestMicrocodeOverrideOnSharedArtefact(t *testing.T) {
	sc := NewSuperconducting(3)
	compiled, err := sc.Compile(bell())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.RunCompiled(compiled, 2, 4, 3); err != nil {
		t.Fatal(err)
	}
	spin := *sc
	spin.Microcode = microarch.SemiconductingConfig()
	fresh, err := spin.Compile(bell())
	if err != nil {
		t.Fatal(err)
	}
	want, err := spin.RunCompiled(fresh, 2, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		got, err := spin.RunCompiled(compiled, 2, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got.Trace.Config != "semiconducting" {
			t.Fatalf("run %d: trace config %q, want semiconducting", run, got.Trace.Config)
		}
		if !reflect.DeepEqual(got.Trace, want.Trace) {
			t.Fatalf("run %d: trace differs from a fresh compile on the same microcode", run)
		}
		for _, p := range got.Trace.Pulses {
			if p.Codeword < 100 {
				t.Fatalf("run %d: superconducting codeword %d on the spin microcode", run, p.Codeword)
			}
		}
		if got.WallNs != want.WallNs {
			t.Errorf("run %d: WallNs %d, want %d", run, got.WallNs, want.WallNs)
		}
	}
	// The original stack still sees its own microcode afterwards.
	back, err := sc.RunCompiled(compiled, 2, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if back.Trace.Config != "superconducting" {
		t.Errorf("trace config %q after the override, want superconducting", back.Trace.Config)
	}
}

// ghz3 is the fixed 3-qubit program of the allocation guard.
func ghz3() *openql.Program {
	p := openql.NewProgram("ghz3", 3)
	p.AddKernel(openql.NewKernel("ghz", 3).H(0).CNOT(0, 1).CNOT(1, 2).Measure(0).Measure(1).Measure(2))
	return p
}

// A cached 1-shot superconducting run of a compiled artefact allocates
// only the per-run execution state: the eQASM text, timeline, decoded
// pulse trace and compacted circuit are built once per artefact, not
// per run. The budget is half the allocation count the run had while
// it rebuilt them every time (713 allocations per run).
func TestCachedRunCompiledAllocs(t *testing.T) {
	s := NewSuperconducting(1)
	compiled, err := s.Compile(ghz3())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunCompiled(compiled, 3, 1, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.RunCompiled(compiled, 3, 1, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per cached run", allocs)
	if allocs > 356 {
		t.Errorf("cached RunCompiled allocates %.0f times per run, budget 356", allocs)
	}
}

// Concurrent first runs of a fresh artefact share one preparation:
// exactly one run reports having paid for it, and every run returns the
// seeded counts of a run on a separately compiled artefact.
func TestConcurrentFirstRunsPrepareOnce(t *testing.T) {
	s := NewSuperconducting(2)
	ref, err := s.Compile(ghz3())
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.RunCompiled(ref, 3, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := s.Compile(ghz3())
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	reps := make([]*Report, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = s.RunCompiled(compiled, 3, 32, 4)
		}(i)
	}
	wg.Wait()
	prepared := 0
	for i, rep := range reps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if rep.Prepare != nil {
			prepared++
		}
		if !reflect.DeepEqual(rep.Result.Counts, want.Result.Counts) {
			t.Errorf("run %d: counts %v, want %v", i, rep.Result.Counts, want.Result.Counts)
		}
		if rep.EQASM != want.EQASM || !reflect.DeepEqual(rep.Trace, want.Trace) {
			t.Errorf("run %d: eQASM or trace differs from a separately compiled artefact", i)
		}
	}
	if prepared != 1 {
		t.Errorf("%d runs prepared the artefact, want exactly 1", prepared)
	}
}
