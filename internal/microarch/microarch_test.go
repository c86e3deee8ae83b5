package microarch

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/compiler"
	"repro/internal/eqasm"
	"repro/internal/qx"
)

// compileToEqasm runs the full front end: decompose → schedule → assemble.
func compileToEqasm(t *testing.T, c *circuit.Circuit, p *compiler.Platform) *eqasm.Program {
	t.Helper()
	dec, err := compiler.Decompose(c, p)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := compiler.ScheduleCircuit(dec, p, compiler.ASAP)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := eqasm.Assemble(sched, p)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestExecuteBellEndToEnd(t *testing.T) {
	p := compiler.Superconducting()
	prog := compileToEqasm(t, circuit.Bell().MeasureAll(), p)
	m := New(SuperconductingConfig(), qx.New(7))
	report, err := m.Execute(prog, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if report.Result == nil {
		t.Fatal("no quantum result")
	}
	p00 := report.Result.Probability(0)
	p11 := report.Result.Probability(3)
	if math.Abs(p00-0.5) > 0.05 || math.Abs(p11-0.5) > 0.05 {
		t.Errorf("Bell through microarch: p00=%v p11=%v", p00, p11)
	}
	if len(report.Trace.Pulses) == 0 {
		t.Error("no pulses traced")
	}
	if report.Trace.TotalNs <= 0 {
		t.Error("no time elapsed")
	}
}

func TestPulseTimingPrecision(t *testing.T) {
	p := compiler.Superconducting()
	c := circuit.New("seq", 1)
	c.Add("x90", []int{0})
	c.Add("x90", []int{0})
	prog := compileToEqasm(t, c, p)
	m := New(SuperconductingConfig(), nil)
	report, err := m.Execute(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Trace.Pulses) != 2 {
		t.Fatalf("pulses = %d, want 2", len(report.Trace.Pulses))
	}
	// Second x90 must start exactly one cycle (20 ns) after the first.
	if report.Trace.Pulses[0].StartNs != 0 || report.Trace.Pulses[1].StartNs != 20 {
		t.Errorf("pulse starts %d, %d; want 0, 20",
			report.Trace.Pulses[0].StartNs, report.Trace.Pulses[1].StartNs)
	}
}

func TestRetargetingChangesOnlyTiming(t *testing.T) {
	// The same eQASM program executes on both technologies; only the
	// microcode config differs (the paper's key retargeting claim).
	scPlat := compiler.Superconducting()
	c := circuit.Bell().MeasureAll()
	prog := compileToEqasm(t, c, scPlat)

	sc := New(SuperconductingConfig(), qx.New(3))
	semi := New(SemiconductingConfig(), qx.New(3))
	rsc, err := sc.Execute(prog, 500)
	if err != nil {
		t.Fatal(err)
	}
	rsemi, err := semi.Execute(prog, 500)
	if err != nil {
		t.Fatal(err)
	}
	// Same measurement statistics (same seed, same program)...
	if rsc.Result.Counts[0] != rsemi.Result.Counts[0] {
		t.Errorf("retargeting changed results: %v vs %v", rsc.Result.Counts, rsemi.Result.Counts)
	}
	// ...but different wall-clock: semiconducting cycles are 5× longer.
	if rsemi.Trace.TotalNs <= rsc.Trace.TotalNs {
		t.Errorf("semiconducting (%d ns) should be slower than superconducting (%d ns)",
			rsemi.Trace.TotalNs, rsc.Trace.TotalNs)
	}
	// Codewords must come from the respective tables.
	if rsc.Trace.Pulses[0].Codeword >= 100 {
		t.Error("superconducting trace uses semiconducting codewords")
	}
	if rsemi.Trace.Pulses[0].Codeword < 100 {
		t.Error("semiconducting trace uses superconducting codewords")
	}
}

func TestMissingMicrocode(t *testing.T) {
	cfg := &Config{Name: "tiny", CycleTimeNs: 10, Microcode: map[string][]MicroOp{}}
	prog := &eqasm.Program{NumQubits: 1, Instrs: []eqasm.Instr{
		eqasm.SMIS{Reg: 0, Qubits: []int{0}},
		eqasm.Bundle{PreWait: 0, Ops: []eqasm.QOp{{Name: "x90", Reg: 0}}},
	}}
	m := New(cfg, nil)
	if _, err := m.Execute(prog, 0); err == nil {
		t.Error("missing microcode accepted")
	}
}

func TestChannelUtilization(t *testing.T) {
	p := compiler.Superconducting()
	c := circuit.New("u", 2)
	c.Add("x90", []int{0})
	c.Add("cz", []int{0, 1})
	prog := compileToEqasm(t, c, p)
	m := New(SuperconductingConfig(), nil)
	report, err := m.Execute(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	mw := report.Trace.Utilization(ChannelMicrowave)
	flux := report.Trace.Utilization(ChannelFlux)
	if mw <= 0 || flux <= 0 {
		t.Errorf("utilizations mw=%v flux=%v should be positive", mw, flux)
	}
	// One 20 ns mw pulse, one cz = 2 pulses × 40 ns (both qubits);
	// total 60 ns: mw busy 20, flux busy 80.
	if report.Trace.ChannelBusyNs[ChannelMicrowave] != 20 {
		t.Errorf("mw busy = %d", report.Trace.ChannelBusyNs[ChannelMicrowave])
	}
	if report.Trace.ChannelBusyNs[ChannelFlux] != 80 {
		t.Errorf("flux busy = %d", report.Trace.ChannelBusyNs[ChannelFlux])
	}
}

func TestQueueOverflow(t *testing.T) {
	cfg := SuperconductingConfig()
	cfg.QueueDepth = 1
	// A parametric pulse train would need 2 queue slots on the same
	// qubit within one event: build via semiconducting cz (2 micro-ops).
	semi := SemiconductingConfig()
	semi.QueueDepth = 1
	prog := &eqasm.Program{NumQubits: 2, Instrs: []eqasm.Instr{
		eqasm.SMIT{Reg: 0, Pairs: [][2]int{{0, 1}}},
		eqasm.Bundle{PreWait: 0, Ops: []eqasm.QOp{{Name: "cz", TwoQ: true, Reg: 0}}},
	}}
	m := New(semi, nil)
	if _, err := m.Execute(prog, 0); err == nil {
		t.Error("queue overflow not detected")
	}
}

func TestNoisyBackendThroughMicroarch(t *testing.T) {
	p := compiler.Superconducting()
	prog := compileToEqasm(t, circuit.GHZ(4).MeasureAll(), p)
	m := New(SuperconductingConfig(), qx.NewNoisy(5, qx.Depolarizing(0.02)))
	report, err := m.Execute(prog, 400)
	if err != nil {
		t.Fatal(err)
	}
	good := report.Result.Counts[0] + report.Result.Counts[15]
	if good == 400 {
		t.Error("realistic qubits produced no errors")
	}
	if good < 200 {
		t.Errorf("too many errors: %d/400 good", good)
	}
}

func TestBackendCompactionRemapsOutcomes(t *testing.T) {
	// A program touching only qubits 3 and 9 of a 17-qubit chip must
	// return outcomes in the 17-qubit physical bit positions while
	// simulating just 2 qubits internally.
	prog := &eqasm.Program{NumQubits: 17, Instrs: []eqasm.Instr{
		eqasm.SMIS{Reg: 0, Qubits: []int{3}},
		eqasm.Bundle{PreWait: 0, Ops: []eqasm.QOp{{Name: "x90", Reg: 0}}},
		eqasm.Bundle{PreWait: 1, Ops: []eqasm.QOp{{Name: "x90", Reg: 0}}},
		eqasm.SMIS{Reg: 1, Qubits: []int{3, 9}},
		eqasm.Bundle{PreWait: 1, Ops: []eqasm.QOp{{Name: "measz", Reg: 1}}},
	}}
	m := New(SuperconductingConfig(), qx.New(9))
	report, err := m.Execute(prog, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Two x90 = X on qubit 3: outcome must be bit 3 set, bit 9 clear.
	if report.Result.Counts[1<<3] != 200 {
		t.Errorf("compacted outcome remap wrong: %v", report.Result.Counts)
	}
	if report.Result.NumQubits != 17 {
		t.Errorf("result register size %d", report.Result.NumQubits)
	}
}

func TestShotWorkersParallelBackend(t *testing.T) {
	p := compiler.Superconducting()
	prog := compileToEqasm(t, circuit.Bell().MeasureAll(), p)
	m := New(SuperconductingConfig(), qx.NewNoisy(7, qx.Depolarizing(0.01)))
	m.ShotWorkers = 4
	report, err := m.Execute(prog, 400)
	if err != nil {
		t.Fatal(err)
	}
	if report.Result == nil {
		t.Fatal("no quantum result")
	}
	total := 0
	for _, n := range report.Result.Counts {
		total += n
	}
	if total != 400 || report.Result.Shots != 400 {
		t.Errorf("parallel shots merged %d (Shots=%d), want 400", total, report.Result.Shots)
	}
	// Timing decode is shot-independent and must be unaffected.
	if report.Trace == nil || report.Trace.TotalNs <= 0 {
		t.Error("parallel shot execution lost the timing trace")
	}
}

// ghzProgram assembles a 3-qubit GHZ circuit for the 17-qubit
// transmon chip, so compaction drops most of the register.
func ghzProgram(t *testing.T) *eqasm.Program {
	t.Helper()
	c := circuit.New("ghz", 3)
	c.Add("h", []int{0})
	c.Add("cnot", []int{0, 1})
	c.Add("cnot", []int{1, 2})
	c.MeasureAll()
	return compileToEqasm(t, c, compiler.Superconducting())
}

// Execute is Prepare followed by Run: the same trace and the same
// seeded counts once Run's compacted outcomes return to physical
// positions, on both technologies' microcode.
func TestPrepareRunMatchesExecute(t *testing.T) {
	prog := ghzProgram(t)
	for _, cfg := range []func() *Config{SuperconductingConfig, SemiconductingConfig} {
		backend := func() *qx.Simulator { return qx.NewNoisy(5, qx.Depolarizing(0.05)) }
		want, err := New(cfg(), backend()).Execute(prog, 300)
		if err != nil {
			t.Fatal(err)
		}
		m := New(cfg(), backend())
		p, err := m.Prepare(prog)
		if err != nil {
			t.Fatal(err)
		}
		if p.Circuit.NumQubits != 3 {
			t.Errorf("%s: compacted register has %d qubits, want 3", cfg().Name, p.Circuit.NumQubits)
		}
		got, err := m.Run(p, 300)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Trace, want.Trace) {
			t.Errorf("%s: Prepare+Run trace differs from Execute", cfg().Name)
		}
		phys := got.Result.Remap(len(p.Compact), p.Compact)
		if phys.NumQubits != prog.NumQubits || !reflect.DeepEqual(phys.Counts, want.Result.Counts) {
			t.Errorf("%s: Prepare+Run counts %v on %d qubits, Execute %v on %d",
				cfg().Name, phys.Counts, phys.NumQubits, want.Result.Counts, want.Result.NumQubits)
		}
	}
}

// One prepared program runs from many goroutines at once, each on its
// own seeded backend, with exactly the counts of a serial run.
func TestPreparedConcurrentRuns(t *testing.T) {
	cfg := SuperconductingConfig()
	p, err := New(cfg, nil).Prepare(ghzProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*RunReport, error) {
		return New(cfg, qx.NewNoisy(5, qx.Depolarizing(0.05))).Run(p, 200)
	}
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	got := make([]*RunReport, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = run()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i].Result.Counts, want.Result.Counts) {
			t.Errorf("goroutine %d: counts %v, serial %v", i, got[i].Result.Counts, want.Result.Counts)
		}
		if got[i].Trace != p.Trace {
			t.Errorf("goroutine %d: run does not share the prepared trace", i)
		}
	}
}
