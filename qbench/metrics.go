package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a --trace 0 run reports, measured over the
// timed window of the closed loop with nothing traced.
var endToEnd = []metricDef{
	{"throughput_ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics a --trace 1 run reports: the closed loop's
// job timestamps, cache and runtime deltas, then the layer replay.
var perLayer = []metricDef{
	{"qserv.submit_rtt_ms", "ms", "lower"},
	{"qserv.queue_wait_ms", "ms", "lower"},
	{"qserv.service_ms", "ms", "lower"},
	{"qserv.client_overhead_ms", "ms", "lower"},
	{"qserv.full_hit_rate", "ratio", "higher"},
	{"qserv.prefix_hit_rate", "ratio", "higher"},
	{"qx.stabilizer_frac", "ratio", "higher"},
	{"go.alloc_kb_per_op", "KiB", "lower"},
	{"go.gc_cycles_per_op", "count", "lower"},
	{"cqasm.parse_us", "us", "lower"},
	{"core.fingerprint_us", "us", "lower"},
	{"openql.compile_us", "us", "lower"},
	{"openql.suffix_compile_us", "us", "lower"},
	{"compiler.gates_out", "count", "lower"},
	{"compiler.added_swaps", "count", "lower"},
	{"compiler.makespan_cycles", "cycles", "lower"},
	{"openql.bind_us", "us", "lower"},
	{"eqasm.render_us", "us", "lower"},
	{"microarch.decode_us", "us", "lower"},
	{"qx.engine_us", "us", "lower"},
	{"qx.shots_per_s", "1/s", "higher"},
	{"core.run_residual_us", "us", "lower"},
	{"qserv.get_job_us", "us", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"microarch.measure_all_us", "us", "lower"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill copies the named values into r.Metrics with their declared
// units, taking exactly the metrics of defs.
func (r *result) fill(defs []metricDef, values map[string]float64) {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
}

// percentile is the nearest-rank p-quantile of xs (sorted in place),
// with the number of samples above it; 0 for no samples.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	i = max(0, min(i, len(xs)-1))
	return xs[i], len(xs) - 1 - i
}

// median of xs (sorted in place); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// usage is a process resource snapshot.
type usage struct {
	cpu      time.Duration // user + system
	allocs   uint64        // cumulative heap bytes allocated
	gcCycles uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return usage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:   s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
	}
}

// rssSampler samples the process's resident set every rssPeriod while
// the timed window runs. peak is the highest one-second median of those
// samples: sustained memory (caches, artefacts, retained jobs) counts,
// while a single GC cycle's millisecond overshoot, random in size and
// timing, does not.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB, one per rssPeriod
}

const rssPeriod = 10 * time.Millisecond

func startRSSSampler() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(rssPeriod)
		defer tick.Stop()
		for {
			if mb, ok := residentMB(); ok {
				r.samples = append(r.samples, mb)
			}
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// peak stops the sampler and returns the highest one-second median,
// or the process's peak resident set where /proc/self/statm is missing.
func (r *rssSampler) peak() float64 {
	close(r.stop)
	<-r.done
	if len(r.samples) == 0 {
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
		return float64(ru.Maxrss) / 1024                // Linux reports KiB
	}
	per := int(time.Second / rssPeriod)
	best := 0.0
	for i := 0; i < len(r.samples); i += per {
		best = max(best, median(slices.Clone(r.samples[i:min(i+per, len(r.samples))])))
	}
	return best
}

// residentMB reads the resident set size from /proc/self/statm.
func residentMB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

// provenance identifies what was measured and where.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Clients    int    `json:"clients"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	BinaryHash string `json:"binary_sha256"`
	// StreamHashes holds one SHA-256 per client op stream (stream.Hash).
	StreamHashes []string `json:"stream_sha256"`
}

func newProvenance(cfg config, st *stream) (provenance, error) {
	p := provenance{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Clients:    cfg.clients,
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	var err error
	if p.SourceHash, err = sourceHash(cfg.root); err != nil {
		return p, err
	}
	if exe, err := os.Executable(); err == nil {
		p.BinaryHash, _ = fileHash(exe) // best effort: the binary may be gone
	}
	for c := 0; c < cfg.clients; c++ {
		h, err := st.Hash(c)
		if err != nil {
			return p, err
		}
		p.StreamHashes = append(p.StreamHashes, h)
	}
	return p, nil
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash is the SHA-256 over the paths and contents of every go.mod
// and .go file under root (build output excluded): it names the measured
// code where no commit is recorded, as in an exported checkout.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write([]byte{0})
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}

func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
