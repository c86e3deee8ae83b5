// Command qbench is the repository benchmark. It boots qserv in-process
// with its default Config, as qservd runs it, drives one closed-loop
// workload over loopback HTTP from at most two client goroutines, checks
// every result, and prints the metrics declared in BENCHMARK.json:
//
//	go build -o qbench . && ./qbench --workload hot_submit --seed 1 --seconds 55 --trace 0
//
// --trace 0 reports the end-to-end metrics of the closed loop; --trace 1
// runs the loop for half the time and spends the rest replaying the
// workload's ops through each layer's public functions, timed from here,
// and reports the per-layer metrics. The last output line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the exit code is
// non-zero when any op failed or any check did not pass. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/qserv"
)

// setups is how many times a --trace 0 run boots and warms the service;
// setup_s is their median.
const setups = 15

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	clients  int
	// root is the checkout root, whose sources the provenance hashes.
	root string
}

func parseConfig(args []string) (config, error) {
	fs := flag.NewFlagSet("qbench", flag.ContinueOnError)
	cfg := config{root: ".", clients: min(2, runtime.GOMAXPROCS(0))}
	fs.StringVar(&cfg.workload, "workload", "", "workload: hot_submit, cold_compile or variational_bind")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same op streams")
	fs.IntVar(&cfg.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch {
	case !slices.Contains(workloadNames, cfg.workload):
		return cfg, fmt.Errorf("--workload must be one of %v", workloadNames)
	case cfg.seconds < 1:
		return cfg, fmt.Errorf("--seconds must be at least 1")
	case cfg.trace != 0 && cfg.trace != 1:
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	return cfg, nil
}

func main() {
	cfg, err := parseConfig(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "qbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// run performs one benchmark run, writing its report lines to w and
// returning the result line.
func run(cfg config, w io.Writer) (result, error) {
	st, err := newStream(cfg.workload, cfg.seed)
	if err != nil {
		return result{}, err
	}
	prov, err := newProvenance(cfg, st)
	if err != nil {
		return result{}, err
	}
	line, err := json.Marshal(prov)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "provenance %s\n", line)
	loop := time.Duration(cfg.seconds) * time.Second
	if cfg.trace == 1 {
		loop /= 2
	}

	// A --trace 0 run sets up `setups` times before the timed window,
	// closing each service but the last, which serves the window.
	var (
		setup []float64
		h     *harness
	)
	for len(setup) == 0 || (cfg.trace == 0 && len(setup) < setups) {
		if h != nil {
			h.close()
			// Collect the closed service's garbage, so every set-up
			// starts from the heap state the first one had.
			runtime.GC()
		}
		t := time.Now()
		if h, err = bootWarm(cfg.clients, st); err != nil {
			return result{}, err
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	stats0, rss := h.svc.Stats(), startRSSSampler()
	loopRes, err := h.closedLoop(st, loop)
	stats1, peakRSS := h.svc.Stats(), rss.peak()
	h.close()
	if err != nil {
		return result{}, err
	}

	rp := newReplayer(st)
	problems := append(loopRes.problems, replayChecks(cfg.seed, rp, loopRes.kept)...)
	ok := loopRes.records
	res := result{
		Attempted: loopRes.attempted,
		Failed:    loopRes.failed,
		Correct:   len(problems) == 0 && loopRes.failed == 0,
	}
	fmt.Fprintf(w, "ops: %d attempted, %d failed (failed_frac %g) by %d closed-loop clients in %.3fs\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(1, res.Attempted)), cfg.clients, loopRes.elapsed.Seconds())
	fmt.Fprintf(w, "checks: every op (status, shots, widths, cache premise); replay parity and exact oracle on %d kept ops\n", len(loopRes.kept))
	for _, p := range problems {
		fmt.Fprintln(w, "check failed:", p)
	}
	if len(ok) == 0 {
		return result{}, fmt.Errorf("no op completed in %s", loopRes.elapsed)
	}

	values, defs := map[string]float64{}, endToEnd
	if cfg.trace == 0 {
		windowMetrics(w, values, loopRes, loop)
		values["peak_rss_mb"] = peakRSS
		fmt.Fprintf(w, "setup: %d boots, seconds %v\n", len(setup), setup)
		values["setup_s"] = median(setup)
	} else {
		defs = perLayer
		loopLayers(values, loopRes, stats1, stats0)
		layers, err := rp.traceLayers(loop)
		if err != nil {
			return result{}, err
		}
		replayLayers(values, layers)
		if cfg.workload != variationalBind {
			if values["openql.bind_us"], err = rp.bindProbeUs(); err != nil {
				return result{}, err
			}
		}
		if values["microarch.measure_all_us"], err = rp.measureAllUs(); err != nil {
			return result{}, err
		}
		reportDesign(w, cfg.workload, layers)
	}
	res.fill(defs, values)
	for _, d := range defs {
		fmt.Fprintf(w, "metric %-28s %14.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	return res, nil
}

// windowMetrics derives throughput, latency percentiles and CPU per op
// in each sub-window of the timed window (ops by completion time) and
// reports the median over the sub-windows. The last sub-window ends
// when the last in-flight op has completed.
func windowMetrics(w io.Writer, values map[string]float64, lr loopRun, loop time.Duration) {
	var thr, p50, p95, cpu []float64
	for k := 0; k < windows; k++ {
		from, to := loop*time.Duration(k)/windows, loop*time.Duration(k+1)/windows
		if k == windows-1 {
			to = lr.elapsed
		}
		var lat []float64
		for _, r := range lr.records {
			if r.done >= from && (r.done < to || k == windows-1) {
				lat = append(lat, ms(r.latency))
			}
		}
		n := float64(max(1, len(lat)))
		a, beyond50 := percentile(lat, 0.50)
		b, beyond95 := percentile(lat, 0.95)
		thr = append(thr, float64(len(lat))/(to-from).Seconds())
		p50, p95 = append(p50, a), append(p95, b)
		cpu = append(cpu, ms(lr.cuts[k+1].cpu-lr.cuts[k].cpu)/n)
		fmt.Fprintf(w, "window %d: %d ops in %.3fs, %.4f ops/s, p50 %.4f ms (%d beyond), p95 %.4f ms (%d beyond), %.4f cpu ms/op\n",
			k+1, len(lat), (to - from).Seconds(), thr[k], a, beyond50, b, beyond95, cpu[k])
	}
	values["throughput_ops_per_s"] = median(thr)
	values["latency_p50_ms"] = median(p50)
	values["latency_p95_ms"] = median(p95)
	values["cpu_ms_per_op"] = median(cpu)
}

// bootWarm is one set-up: boot the service and warm it.
func bootWarm(clients int, st *stream) (*harness, error) {
	h, err := boot(clients)
	if err != nil {
		return nil, err
	}
	if err := h.warm(st); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// replayChecks re-derives a seeded sample of the kept ops through the
// replay (same counts for the same artefact and seed) and checks a
// seeded sample of the kept perfect-stack ops against the exact
// distribution. The per-op checks already ran in the loop.
func replayChecks(seed int64, rp *replayer, kept []sample) (problems []string) {
	var all, perfects []int
	for i := range kept {
		all = append(all, i)
		if kept[i].Op.Backend == perfect {
			perfects = append(perfects, i)
		}
	}
	for _, i := range pick(seed, tagParity, all, paritySample) {
		if err := rp.checkParity(&kept[i]); err != nil {
			problems = append(problems, err.Error())
		}
	}
	for _, i := range pick(seed, tagExact, perfects, exactSample) {
		if err := rp.checkExact(&kept[i]); err != nil {
			problems = append(problems, err.Error())
		}
	}
	return problems
}

// loopLayers derives the per-layer metrics of the closed loop: the
// jobs' own timestamps, the compile-cache and Go runtime deltas over the
// window, and the engine mix.
func loopLayers(values map[string]float64, lr loopRun, s1, s0 qserv.Stats) {
	var rtt, wait, svc, overhead []float64
	stabilizer := 0
	for _, r := range lr.records {
		rtt = append(rtt, ms(r.rtt))
		wait = append(wait, ms(r.queue))
		svc = append(svc, ms(r.service))
		overhead = append(overhead, ms(r.overhead))
		if r.stabilizer {
			stabilizer++
		}
	}
	n := float64(len(lr.records))
	u0, u1 := lr.cuts[0], lr.cuts[windows]
	values["qserv.submit_rtt_ms"] = median(rtt)
	values["qserv.queue_wait_ms"] = median(wait)
	values["qserv.service_ms"] = median(svc)
	values["qserv.client_overhead_ms"] = median(overhead)
	values["qserv.full_hit_rate"] = hitRate(s1.Cache, s0.Cache)
	values["qserv.prefix_hit_rate"] = hitRate(s1.PrefixCache, s0.PrefixCache)
	values["qx.stabilizer_frac"] = float64(stabilizer) / n
	values["go.alloc_kb_per_op"] = float64(u1.allocs-u0.allocs) / 1024 / n
	values["go.gc_cycles_per_op"] = float64(u1.gcCycles-u0.gcCycles) / n
}

// hitRate is the hit share of the cache lookups between two snapshots
// (0 when there were none).
func hitRate(after, before qserv.CacheStats) float64 {
	hits := after.Hits - before.Hits
	total := hits + after.Misses - before.Misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// replayLayers reports each replay layer as its median over the replayed
// ops.
func replayLayers(values map[string]float64, layers []opLayers) {
	med := func(get func(o opLayers) float64) float64 {
		xs := make([]float64, len(layers))
		for i, o := range layers {
			xs[i] = get(o)
		}
		return median(xs)
	}
	values["cqasm.parse_us"] = med(func(o opLayers) float64 { return o.parse })
	values["core.fingerprint_us"] = med(func(o opLayers) float64 { return o.fingerprint })
	values["openql.compile_us"] = med(func(o opLayers) float64 { return o.compile })
	values["openql.suffix_compile_us"] = med(func(o opLayers) float64 { return o.suffix })
	values["compiler.gates_out"] = med(func(o opLayers) float64 { return float64(o.gatesOut) })
	values["compiler.added_swaps"] = med(func(o opLayers) float64 { return float64(o.addedSwaps) })
	values["compiler.makespan_cycles"] = med(func(o opLayers) float64 { return float64(o.makespan) })
	values["openql.bind_us"] = med(func(o opLayers) float64 { return o.bind })
	values["eqasm.render_us"] = med(func(o opLayers) float64 { return o.render })
	values["microarch.decode_us"] = med(func(o opLayers) float64 { return o.decode })
	values["qx.engine_us"] = med(func(o opLayers) float64 { return o.engine })
	values["qx.shots_per_s"] = med(func(o opLayers) float64 { return float64(o.op.Shots) / (o.engine / 1e6) })
	values["core.run_residual_us"] = med(func(o opLayers) float64 { return o.residual })
	values["qserv.get_job_us"] = med(func(o opLayers) float64 { return o.getJob })
	values["trace.coverage"] = med(func(o opLayers) float64 { return o.coverage })
}

// reportDesign prints the shares of the replayed ops' summed service
// time (each op run alone) that the replay attributes to the engine, to
// compile or bind, and to everything else, and whether the share the
// workload exists to stress is the largest. It is a report, not a
// check: an optimisation may legitimately shift the shares.
func reportDesign(w io.Writer, workload string, layers []opLayers) {
	var service, engine, compile float64
	for _, o := range layers {
		service += o.service
		engine += o.engine
		compile += o.compileOnPath + o.bind
	}
	e, c := engine/service, compile/service
	x := 1 - e - c
	claim, share := "the qx engine", e
	switch workload {
	case hotSubmit:
		claim, share = "the layers other than engine and compile", x
	case coldCompile:
		claim, share = "openql compile", c
	}
	verdict := "confirmed"
	if share < max(e, c, x) {
		verdict = "NOT confirmed"
	}
	fmt.Fprintf(w, "design: service-time shares engine %.3f, compile+bind %.3f, other %.3f; largest share for %s: %s\n",
		e, c, x, claim, verdict)
}
