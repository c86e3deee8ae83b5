package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cqasm"
	"repro/internal/microarch"
	"repro/internal/openql"
	"repro/internal/qserv"
	"repro/internal/qx"
)

// Replay sizes: the leading ops of client 0's stream that the replay
// times on cold_compile and variational_bind. On hot_submit it times one
// op per working-set program instead (see replayOps).
var replayLeading = map[string]int{coldCompile: 16, variationalBind: 4}

const (
	minPasses = 3
	maxPasses = 25
	// measureAllRuns times the superconducting measure_all probe.
	measureAllRuns = 3
	// measureAllProgram is a 2-qubit GHZ ending in measure_all: on the
	// 17-qubit chip the micro-architecture expands it to every qubit.
	measureAllProgram = "version 1.0\nqubits 2\nh q[0]\ncnot q[0], q[1]\nmeasure_all\n"
)

// replayer rebuilds the service's gate stacks from the same public
// constructors qserv.DefaultService uses, so it compiles the same
// artefacts and, for the same (artefact, seed), draws the same counts.
// It drives each layer's public functions directly and times them from
// outside; nothing inside the program is traced.
type replayer struct {
	st     *stream
	stacks map[string]*core.Stack
}

func newReplayer(st *stream) *replayer {
	// DefaultService with the default Config: engine auto, seed 1, two
	// workers per pool, each job's kernels budgeted GOMAXPROCS/2 workers.
	kernelWorkers := max(1, runtime.GOMAXPROCS(0)/2)
	r := &replayer{st: st, stacks: map[string]*core.Stack{}}
	for _, s := range []*core.Stack{
		core.NewPerfect(perfectQubits, 1),
		core.NewSuperconducting(1),
		core.NewSemiconducting(1),
	} {
		s.Engine = qx.EngineAuto
		s.KernelWorkers = kernelWorkers
		r.stacks[s.Name] = s
	}
	return r
}

// stack resolves the stack an op runs on, applying a calibration
// override the way the service does (core.Stack.WithDevice).
func (r *replayer) stack(op Op) (*core.Stack, error) {
	s, ok := r.stacks[op.Backend]
	if !ok {
		return nil, fmt.Errorf("no stack %q", op.Backend)
	}
	if op.Calibration == nil {
		return s, nil
	}
	return s.WithDevice(s.Platform.AsDevice().WithCalibration(op.Calibration))
}

// source is the cQASM an op's artefact compiles from: the op's program,
// or for a bind the client's session ansatz.
func (r *replayer) source(op Op) (string, error) {
	if op.Values == nil {
		return op.CQASM, nil
	}
	a, err := r.st.Ansatz(op.Client)
	return a.CQASM, err
}

// program lifts cQASM into an OpenQL program as the service does for an
// unnamed job.
func program(src string) (*openql.Program, error) {
	c, err := cqasm.ParseToCircuit(src)
	if err != nil {
		return nil, err
	}
	return openql.ProgramFromCircuit("cqasm", c), nil
}

// uncached is a copy of the stack without shared compile resources.
func uncached(s *core.Stack) *core.Stack {
	c := *s
	c.PrefixCache, c.CompileGate = nil, nil
	return &c
}

// artefact compiles the op's program with caches off and binds the op's
// values when it is a session bind: the executable the service ran.
func (r *replayer) artefact(op Op) (*core.Stack, *openql.Compiled, error) {
	stack, err := r.stack(op)
	if err != nil {
		return nil, nil, err
	}
	src, err := r.source(op)
	if err != nil {
		return nil, nil, err
	}
	p, err := program(src)
	if err != nil {
		return nil, nil, err
	}
	compiled, err := uncached(stack).Compile(p)
	if err != nil {
		return nil, nil, err
	}
	if op.Values != nil {
		compiled, err = compiled.BindArtefact(op.Values)
	}
	return stack, compiled, err
}

// counts replays the op end to end through core.Stack.RunCompiled with
// the op's seed and renders the counts as the service's result view
// does.
func (r *replayer) counts(op Op) (map[string]int, error) {
	stack, art, err := r.artefact(op)
	if err != nil {
		return nil, err
	}
	rep, err := stack.RunCompiled(art, op.Qubits, op.Shots, op.Seed)
	if err != nil {
		return nil, err
	}
	out := map[string]int{}
	for idx, c := range rep.Result.Counts {
		out[qx.BitString(idx, rep.Result.NumQubits)] += c
	}
	return out, nil
}

// layerPass is one timed trip of one op through every layer.
type layerPass struct {
	parse, fingerprint, compile, suffix, bind time.Duration
	render, decode, exec, run                 time.Duration
	service, getJob                           time.Duration
}

// opLayers is one op's per-layer medians over its passes.
type opLayers struct {
	op                                        Op
	parse, fingerprint, compile, suffix, bind float64 // µs
	render, decode, engine, run, residual     float64 // µs
	service, getJob                           float64 // µs, the op run alone
	gatesOut, addedSwaps, makespan            int
	compileOnPath, coverage                   float64
}

// tracePass times one op through the layers. The parse, fingerprint and
// compile layers time the op's own program, or for a bind the session
// ansatz (compiled once at session open, not per bind).
func (r *replayer) tracePass(op Op) (layerPass, *openql.Compiled, error) {
	var lp layerPass
	stack, err := r.stack(op)
	if err != nil {
		return lp, nil, err
	}
	src, err := r.source(op)
	if err != nil {
		return lp, nil, err
	}
	t := time.Now()
	c, err := cqasm.ParseToCircuit(src)
	lp.parse = time.Since(t)
	if err != nil {
		return lp, nil, err
	}
	p := openql.ProgramFromCircuit("cqasm", c)

	t = time.Now()
	_ = stack.CompileFingerprint()
	lp.fingerprint = time.Since(t)

	t = time.Now()
	compiled, err := uncached(stack).Compile(p)
	lp.compile = time.Since(t)
	if err != nil {
		return lp, nil, err
	}

	// Suffix-only compile: a prefix cache warmed by one compile of the
	// same program, as when a calibration override re-sends it.
	warm := *stack
	warm.CompileGate = nil
	warm.PrefixCache = qserv.NewPrefixCache(4)
	if _, err := warm.Compile(p); err != nil {
		return lp, nil, err
	}
	t = time.Now()
	_, err = warm.Compile(p)
	lp.suffix = time.Since(t)
	if err != nil {
		return lp, nil, err
	}

	art := compiled
	if op.Values != nil {
		t = time.Now()
		art, err = compiled.BindArtefact(op.Values)
		lp.bind = time.Since(t)
		if err != nil {
			return lp, nil, err
		}
	}

	// Execution, split as RunCompiled does it.
	parallel := op.Shots >= parallelShotThreshold(stack)
	engine, err := qx.EngineByName(stack.Engine)
	if err != nil {
		return lp, nil, err
	}
	if stack.Mode == openql.PerfectQubits {
		if d, ok := engine.(qx.Dispatcher); ok {
			engine = d.Dispatch(art.Circuit, nil)
		}
		sim := qx.NewWithEngine(op.Seed, engine)
		sim.KernelWorkers = stack.KernelWorkers
		t = time.Now()
		if parallel {
			_, err = sim.RunParallel(art.Circuit, op.Shots, 0)
		} else {
			_, err = sim.Run(art.Circuit, op.Shots)
		}
		lp.exec = time.Since(t)
		if err != nil {
			return lp, nil, err
		}
	} else {
		if d, ok := engine.(qx.Dispatcher); ok {
			engine = d.Dispatch(art.Circuit, stack.Noise)
		}
		t = time.Now()
		_ = art.EQASM.String()
		lp.render = time.Since(t)
		machine := func() *microarch.Machine {
			b := qx.NewNoisyWithEngine(op.Seed, stack.Noise, engine)
			b.KernelWorkers = stack.KernelWorkers
			m := microarch.New(stack.Microcode, b)
			if parallel {
				m.ShotWorkers = runtime.GOMAXPROCS(0)
			}
			return m
		}
		m := machine()
		t = time.Now()
		_, err = m.Execute(art.EQASM, 0)
		lp.decode = time.Since(t)
		if err != nil {
			return lp, nil, err
		}
		m = machine()
		t = time.Now()
		_, err = m.Execute(art.EQASM, op.Shots)
		lp.exec = time.Since(t)
		if err != nil {
			return lp, nil, err
		}
	}
	t = time.Now()
	_, err = stack.RunCompiled(art, op.Qubits, op.Shots, op.Seed)
	lp.run = time.Since(t)
	return lp, compiled, err
}

// parallelShotThreshold mirrors core.Stack's resolution of
// ParallelShots.
func parallelShotThreshold(s *core.Stack) int {
	switch {
	case s.ParallelShots < 0:
		return math.MaxInt
	case s.ParallelShots == 0:
		return core.DefaultParallelShots
	default:
		return s.ParallelShots
	}
}

// aloneService is a fresh default service with no HTTP server, in which
// each replayed op runs alone: its service time (finished_at −
// started_at) is the denominator of trace.coverage, and GET /jobs/{id}
// of the finished job through Service.Handler times the result view.
type aloneService struct {
	svc     *qserv.Service
	handler http.Handler
	r       *replayer
	// sessions caches one open session per client for bind ops.
	sessions map[int]string
}

func newAloneService(r *replayer) *aloneService {
	svc := qserv.DefaultService(qserv.Config{}, perfectQubits, 0)
	svc.Start()
	return &aloneService{svc: svc, handler: svc.Handler(), r: r, sessions: map[int]string{}}
}

// run warms what the op finds warm in the closed loop (its cache entry
// for hot_submit, the source program's prefix entry for an override op,
// an open session for a bind), then runs the op alone and times the
// service and the result view.
func (a *aloneService) run(op Op) (service, getJob time.Duration, err error) {
	submit := func(op Op) (*qserv.Job, error) {
		if op.Values != nil {
			return a.svc.BindSession(a.sessions[op.Client], qserv.BindRequest{Values: op.Values, Shots: op.Shots, Seed: op.Seed})
		}
		return a.svc.Submit(qserv.Request{CQASM: op.CQASM, Backend: op.Backend, Shots: op.Shots, Seed: op.Seed, Calibration: op.Calibration})
	}
	wait := func(op Op) (*qserv.Job, error) {
		job, err := submit(op)
		if err != nil {
			return nil, err
		}
		if err := job.Wait(context.Background()); err != nil {
			return nil, fmt.Errorf("job %s: %w", job.ID, err)
		}
		return job, nil
	}
	switch {
	case op.Values != nil:
		if _, ok := a.sessions[op.Client]; !ok {
			src, err := a.r.source(op)
			if err != nil {
				return 0, 0, err
			}
			sess, err := a.svc.OpenSession(qserv.Request{CQASM: src, Backend: perfect, Shots: bindShots})
			if err != nil {
				return 0, 0, err
			}
			a.sessions[op.Client] = sess.ID
		}
		_, err = wait(op)
	case a.r.st.workload == hotSubmit:
		_, err = wait(op)
	case op.Override():
		var src Op
		if src, err = a.r.st.coldProgram(op.Client, op.Source); err == nil {
			_, err = wait(src)
		}
	}
	if err != nil {
		return 0, 0, fmt.Errorf("alone warm-up: %w", err)
	}
	job, err := wait(op)
	if err != nil {
		return 0, 0, err
	}
	_, started, finished := job.Times()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/jobs/"+job.ID, nil)
	t := time.Now()
	a.handler.ServeHTTP(rec, req)
	getJob = time.Since(t)
	if rec.Code != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /jobs/%s: status %d", job.ID, rec.Code)
	}
	return finished.Sub(started), getJob, nil
}

func (a *aloneService) close() { a.svc.Stop() }

// traceLayers replays the workload's replay ops through every layer,
// pass after pass until budget runs out (at least minPasses, at
// most maxPasses), each pass with a fresh alone-service. It returns the
// per-op medians.
func (r *replayer) traceLayers(budget time.Duration) ([]opLayers, error) {
	ops, err := r.replayOps()
	if err != nil {
		return nil, err
	}
	n := len(ops)
	passes := make([][]layerPass, n)
	compiled := make([]*openql.Compiled, n)
	deadline := time.Now().Add(budget)
	for pass := 0; pass < maxPasses && (pass < minPasses || time.Now().Before(deadline)); pass++ {
		alone := newAloneService(r)
		for i, op := range ops {
			lp, art, err := r.tracePass(op)
			if err == nil {
				lp.service, lp.getJob, err = alone.run(op)
			}
			if err != nil {
				alone.close()
				return nil, fmt.Errorf("replay op %d: %w", i, err)
			}
			passes[i] = append(passes[i], lp)
			compiled[i] = art
		}
		alone.close()
	}
	out := make([]opLayers, n)
	for i, op := range ops {
		out[i] = summarise(r.st.workload, op, passes[i], compiled[i])
	}
	return out, nil
}

// replayOps are the ops the traced replay times, all from client 0's
// stream, so the replay sees ops the closed loop sent: the leading ops,
// or on hot_submit the first op to pick each working-set program, so
// the replay weighs the programs as the stream does (uniformly).
func (r *replayer) replayOps() ([]Op, error) {
	var ops []Op
	if r.st.workload != hotSubmit {
		for i := 0; i < replayLeading[r.st.workload]; i++ {
			op, err := r.st.Op(0, i)
			if err != nil {
				return nil, err
			}
			ops = append(ops, op)
		}
		return ops, nil
	}
	found := map[string]bool{}
	for i := 0; len(ops) < len(r.st.set); i++ {
		op, err := r.st.Op(0, i)
		if err != nil {
			return nil, err
		}
		if !found[op.CQASM+op.Backend] {
			found[op.CQASM+op.Backend] = true
			ops = append(ops, op)
		}
	}
	return ops, nil
}

// summarise takes one op's per-layer medians and derives its engine and
// residual time and its coverage: the layers on the op's path in the
// service, summed, over its service time alone. On that path a
// hot_submit op compiles nothing (full-cache hit), a cold_compile op
// compiles fully or, re-sent with a calibration override, suffix-only,
// and a bind patches the session artefact.
func summarise(workload string, op Op, passes []layerPass, compiled *openql.Compiled) opLayers {
	med := func(get func(layerPass) time.Duration) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = us(get(p))
		}
		return median(xs)
	}
	o := opLayers{
		op:          op,
		parse:       med(func(p layerPass) time.Duration { return p.parse }),
		fingerprint: med(func(p layerPass) time.Duration { return p.fingerprint }),
		compile:     med(func(p layerPass) time.Duration { return p.compile }),
		suffix:      med(func(p layerPass) time.Duration { return p.suffix }),
		bind:        med(func(p layerPass) time.Duration { return p.bind }),
		render:      med(func(p layerPass) time.Duration { return p.render }),
		decode:      med(func(p layerPass) time.Duration { return p.decode }),
		run:         med(func(p layerPass) time.Duration { return p.run }),
		service:     med(func(p layerPass) time.Duration { return p.service }),
		getJob:      med(func(p layerPass) time.Duration { return p.getJob }),
		gatesOut:    len(compiled.Circuit.Gates),
		makespan:    compiled.Schedule.Makespan,
	}
	if compiled.MapResult != nil {
		o.addedSwaps = compiled.MapResult.AddedSwaps
	}
	// On realistic stacks Machine.Execute(prog, shots) decodes once
	// before running the shots, so the engine is what it adds over
	// Execute(prog, 0).
	o.engine = math.Max(0, med(func(p layerPass) time.Duration { return p.exec })-o.decode)
	o.residual = math.Max(0, o.run-o.render-o.decode-o.engine)
	path := o.run
	switch {
	case op.Values != nil:
		path += o.bind
	case workload == coldCompile && op.Override():
		o.compileOnPath = o.suffix
	case workload == coldCompile:
		o.compileOnPath = o.compile
	}
	if op.Values == nil {
		path += o.parse + o.fingerprint + o.compileOnPath
	}
	if o.service > 0 {
		o.coverage = path / o.service
	}
	return o
}

// bindProbeRuns times the bind probe.
const bindProbeRuns = 51

// bindProbeUs times openql.Compiled.BindArtefact on the variational_bind
// session ansatz of this seed with that stream's first bind values. The
// workloads that bind nothing report it as openql.bind_us, so the bind
// layer is measured whichever workload runs.
func (r *replayer) bindProbeUs() (float64, error) {
	vs, err := newStream(variationalBind, r.st.seed)
	if err != nil {
		return 0, err
	}
	op, err := vs.Op(0, 0)
	if err != nil {
		return 0, err
	}
	a, err := vs.Ansatz(0)
	if err != nil {
		return 0, err
	}
	p, err := program(a.CQASM)
	if err != nil {
		return 0, err
	}
	compiled, err := uncached(r.stacks[perfect]).Compile(p)
	if err != nil {
		return 0, err
	}
	xs := make([]float64, bindProbeRuns)
	for i := range xs {
		t := time.Now()
		if _, err := compiled.BindArtefact(op.Values); err != nil {
			return 0, err
		}
		xs[i] = us(time.Since(t))
	}
	return median(xs), nil
}

// measureAllUs times core.Stack.RunCompiled of a 2-qubit measure_all
// program at 1 shot on superconducting: the whole-chip expansion.
func (r *replayer) measureAllUs() (float64, error) {
	stack := r.stacks[superconducting]
	p, err := program(measureAllProgram)
	if err != nil {
		return 0, err
	}
	compiled, err := uncached(stack).Compile(p)
	if err != nil {
		return 0, err
	}
	xs := make([]float64, measureAllRuns)
	for i := range xs {
		t := time.Now()
		if _, err := stack.RunCompiled(compiled, 2, 1, int64(i+1)); err != nil {
			return 0, err
		}
		xs[i] = us(time.Since(t))
	}
	return median(xs), nil
}
