package qserv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qubo"
	"repro/internal/target"
)

// labDeviceJSON is a 4-qubit calibrated linear device in the wire
// schema, used as a per-job target override.
const labDeviceJSON = `{
	"name": "lab-chip", "qubits": 4, "cycle_time_ns": 20,
	"gates": {"i":{"duration":1},"rz":{"duration":1},"x90":{"duration":1},"mx90":{"duration":1},
	          "y90":{"duration":1},"my90":{"duration":1},"cz":{"duration":2},
	          "measure":{"duration":15},"prep_z":{"duration":10},"wait":{"duration":1},"barrier":{"duration":0}},
	"topology": {"kind": "linear"},
	"calibration": {
		"qubits": [
			{"t1_ns": 30000, "t2_ns": 20000, "readout_error": 0.01, "single_qubit_error": 0.001},
			{"t1_ns": 30000, "t2_ns": 20000, "readout_error": 0.01, "single_qubit_error": 0.001},
			{"t1_ns": 30000, "t2_ns": 20000, "readout_error": 0.01, "single_qubit_error": 0.001},
			{"t1_ns": 30000, "t2_ns": 20000, "readout_error": 0.01, "single_qubit_error": 0.001}
		],
		"edges": [
			{"a":0,"b":1,"two_qubit_error":0.005},
			{"a":1,"b":2,"two_qubit_error":0.005},
			{"a":2,"b":3,"two_qubit_error":0.005}
		]
	}
}`

func awaitJob(t *testing.T, s *Service, req Request) *Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job %s: %v", j.ID, err)
	}
	return j
}

// Acceptance: re-calibrating a device changes CompileFingerprint and
// misses the qserv compile cache — jobs against fresher calibration
// never reuse artefacts compiled for the stale table.
func TestRecalibrationMissesCompileCache(t *testing.T) {
	s := New(Config{Seed: 13})
	s.AddBackend(NewStackBackend(core.NewSuperconducting(13)), 2)
	s.Start()
	t.Cleanup(s.Stop)

	base := Request{Program: bellProgram("recal"), Backend: "superconducting", Shots: 8}
	if j := awaitJob(t, s, base); j.CacheHit() {
		t.Fatal("first compile reported a cache hit")
	}
	if j := awaitJob(t, s, base); !j.CacheHit() {
		t.Fatal("identical resubmission missed the compile cache")
	}

	// Fresh calibration data: one edge degraded.
	recal := target.Superconducting().Calibration
	recal.SetEdgeError(0, 9, 0.2)
	withCal := base
	withCal.Calibration = recal
	if j := awaitJob(t, s, withCal); j.CacheHit() {
		t.Fatal("re-calibrated job reused a compile cached for the stale calibration")
	}
	// The same fresh table resubmitted hits its own entry.
	if j := awaitJob(t, s, withCal); !j.CacheHit() {
		t.Fatal("identical re-calibrated resubmission missed the cache")
	}
	// And the original calibration still hits the original entry.
	if j := awaitJob(t, s, base); !j.CacheHit() {
		t.Fatal("original calibration no longer hits its cache entry")
	}
}

// Per-job device targets: the job compiles and executes against the
// submitted device, keyed separately in the compile cache.
func TestPerJobTargetOverride(t *testing.T) {
	s := twoBackendService(t, Config{Seed: 5})
	dev, err := target.Parse([]byte(labDeviceJSON))
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Program: bellProgram("target"), Backend: "perfect", Target: dev, Shots: 16}
	j := awaitJob(t, s, req)
	if j.CacheHit() {
		t.Error("first targeted job reported a cache hit")
	}
	res := j.Result()
	if res == nil || res.Report == nil || res.Report.Result == nil {
		t.Fatal("targeted job returned no report")
	}
	if res.Report.EQASM == "" {
		t.Error("calibrated target did not execute through the realistic path")
	}
	if res.Report.Stack != "lab-chip" {
		t.Errorf("report stack %q, want lab-chip", res.Report.Stack)
	}
	if j2 := awaitJob(t, s, req); !j2.CacheHit() {
		t.Error("identical targeted job missed the compile cache")
	}
	if j3 := awaitJob(t, s, Request{Program: bellProgram("target"), Backend: "perfect", Shots: 16}); j3.CacheHit() {
		t.Error("untargeted job shared the targeted job's cache entry")
	}
}

// Invalid overrides are rejected at Submit (HTTP 400), never enqueued.
func TestDeviceOverrideValidation(t *testing.T) {
	s := New(Config{Seed: 1})
	s.AddBackend(NewStackBackend(core.NewPerfect(5, 1)), 1)
	s.AddBackend(NewStackBackend(core.NewSemiconducting(1)), 1)
	s.AddBackend(NewAnnealBackend("annealer", false, anneal.SQAOptions{}, anneal.DigitalAnnealerOptions{}), 1)
	s.Start()
	t.Cleanup(s.Stop)

	badDev := target.Perfect(3)
	badDev.NumQubits = 0
	if _, err := s.Submit(Request{CQASM: bellCQASM, Target: badDev}); err == nil {
		t.Error("invalid target device accepted")
	}
	// Calibration overrides need the routed backend to be calibrated.
	cal := target.Semiconducting().Calibration
	if _, err := s.Submit(Request{CQASM: bellCQASM, Backend: "perfect", Calibration: cal}); err == nil {
		t.Error("calibration override on an uncalibrated backend accepted")
	}
	// Wrong-size table against the semiconducting device.
	shortCal := &target.Calibration{Qubits: make([]target.QubitCalibration, 3)}
	if _, err := s.Submit(Request{CQASM: bellCQASM, Backend: "semiconducting", Calibration: shortCal}); err == nil {
		t.Error("wrong-size calibration accepted")
	}
	// Overrides on non-gate backends are rejected.
	if _, err := s.Submit(Request{QUBO: qubo.New(3), Backend: "annealer", Calibration: cal}); err == nil {
		t.Error("calibration on an annealing job accepted")
	}
	// A valid override passes.
	okCal := target.Semiconducting().Calibration
	okCal.SetEdgeError(0, 1, 0.05)
	if _, err := s.Submit(Request{CQASM: bellCQASM, Backend: "semiconducting", Calibration: okCal}); err != nil {
		t.Errorf("valid calibration override rejected: %v", err)
	}
}

// GET /backends exposes each gate backend's device — calibration
// included — and its content hash; accelerator lanes carry no device.
func TestHTTPBackendsEndpoint(t *testing.T) {
	s := New(Config{Seed: 1})
	s.AddBackend(NewStackBackend(core.NewSuperconducting(1)), 2)
	s.AddBackend(NewAnnealBackend("annealer", false, anneal.SQAOptions{}, anneal.DigitalAnnealerOptions{}), 1)
	s.Start()
	t.Cleanup(s.Stop)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /backends = %d", resp.StatusCode)
	}
	var body struct {
		Backends []struct {
			Name       string          `json:"name"`
			Kind       string          `json:"kind"`
			Workers    int             `json:"workers"`
			Device     json.RawMessage `json:"device"`
			DeviceHash string          `json:"device_hash"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Backends) != 2 {
		t.Fatalf("%d backends, want 2", len(body.Backends))
	}
	sc := body.Backends[0]
	if sc.Name != "superconducting" || sc.Kind != "gate" || sc.DeviceHash == "" {
		t.Errorf("superconducting view wrong: %+v", sc)
	}
	dev, err := target.Parse(sc.Device)
	if err != nil {
		t.Fatalf("backend device JSON does not round-trip: %v", err)
	}
	if dev.Calibration == nil || len(dev.Calibration.Qubits) != 17 {
		t.Error("backend device missing calibration data")
	}
	if dev.Hash() != sc.DeviceHash {
		t.Error("device_hash does not match the device body")
	}
	ann := body.Backends[1]
	if ann.Kind != "accelerator" || len(ann.Device) > 0 {
		t.Errorf("annealer view wrong: %+v", ann)
	}
}

// The HTTP surface: a target override compiles against the submitted
// device (echoed in the job view), invalid target/calibration JSON is a
// 400.
func TestHTTPTargetAndCalibration(t *testing.T) {
	s := twoBackendService(t, Config{Seed: 9})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/submit", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&m)
		return resp, m
	}

	// Valid device target.
	resp, m := post(fmt.Sprintf(`{"cqasm": %q, "backend": "perfect", "target": %s, "shots": 8}`,
		bellCQASM, labDeviceJSON))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("targeted submit = %d (%v)", resp.StatusCode, m)
	}
	id := m["id"].(string)
	jr, err := http.Get(srv.URL + "/jobs/" + id + "?wait=15s")
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(jr.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if view.Status != StatusDone {
		t.Fatalf("targeted job status %s (%s)", view.Status, view.Error)
	}
	if view.Device != "lab-chip" {
		t.Errorf("job view device %q, want lab-chip", view.Device)
	}

	// Malformed device JSON → 400 with the target error.
	resp, m = post(fmt.Sprintf(`{"cqasm": %q, "target": {"name":"x","qubits":0}}`, bellCQASM))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid target = %d, want 400", resp.StatusCode)
	}
	if msg, _ := m["error"].(string); !strings.Contains(msg, "no qubits") {
		t.Errorf("error %q does not explain the invalid device", msg)
	}

	// Invalid calibration override → 400.
	resp, m = post(fmt.Sprintf(
		`{"cqasm": %q, "backend": "semiconducting", "calibration": {"qubits": [{"t1_ns": -5}]}}`, bellCQASM))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid calibration = %d, want 400 (%v)", resp.StatusCode, m)
	}
}

// /stats carries per-pass latency percentiles so tail compile time is
// visible per backend.
func TestStatsPassLatencyPercentiles(t *testing.T) {
	s := twoBackendService(t, Config{Seed: 17, CacheSize: -1}) // no cache: every job compiles
	for i := 0; i < 8; i++ {
		awaitJob(t, s, Request{Program: bellProgram(fmt.Sprintf("p%d", i)), Backend: "perfect", Shots: 4})
	}
	st := s.Stats()
	var perfect *BackendStats
	for i := range st.Backends {
		if st.Backends[i].Name == "perfect" {
			perfect = &st.Backends[i]
		}
	}
	if perfect == nil || len(perfect.CompilePasses) == 0 {
		t.Fatal("no compile-pass stats")
	}
	for _, ps := range perfect.CompilePasses {
		if ps.Runs != 8 {
			t.Errorf("pass %s runs = %d, want 8", ps.Pass, ps.Runs)
		}
		if ps.P50Us <= 0 || ps.P95Us < ps.P50Us || ps.P99Us < ps.P95Us {
			t.Errorf("pass %s percentiles not monotone: p50=%g p95=%g p99=%g",
				ps.Pass, ps.P50Us, ps.P95Us, ps.P99Us)
		}
	}
}

// Latency histogram semantics after the obs migration: the shared
// geometric ladder keeps sub-microsecond pass times and multi-ms
// outliers apart, and its quantile estimates bracket the recorded
// values the way the old hand-rolled histogram did.
func TestLatencyHistogram(t *testing.T) {
	h := obs.NewRegistry().NewHistogram("test_latency_seconds", "t", obs.LatencyBuckets)
	for i := 0; i < 99; i++ {
		h.ObserveSeconds(1000) // ~1 µs
	}
	h.ObserveSeconds(50_000_000) // one 50 ms outlier
	if p50 := h.Quantile(0.50) * 1e6; p50 <= 0 || p50 > 2 {
		t.Errorf("p50 = %g µs, want ~1 µs", p50)
	}
	if p99 := h.Quantile(0.995) * 1e6; p99 < 1000 {
		t.Errorf("p99.5 = %g µs, should catch the 50 ms outlier", p99)
	}
}

// A job whose register is too wide for the dense engines fails on its
// own — it must not take the worker (or qservd) down with it — and the
// next job on the same backend still completes.
func TestOversizedDenseJobFailsAlone(t *testing.T) {
	s := New(Config{Seed: 3})
	s.AddBackend(NewStackBackend(core.NewPerfect(5, 3)), 1)
	s.Start()
	t.Cleanup(s.Stop)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	wide, err := s.Submit(Request{
		CQASM:   "version 1.0\nqubits 31\nt q[0]\n",
		Backend: "perfect",
		Target:  target.Perfect(31),
		Shots:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := wide.Wait(ctx); err == nil || !strings.Contains(err.Error(), "dense engines") {
		t.Fatalf("31-qubit non-Clifford job: err = %v, want the dense-limit error", err)
	}
	if wide.Status() != StatusFailed {
		t.Errorf("oversized job status %q, want %q", wide.Status(), StatusFailed)
	}
	next := awaitJob(t, s, Request{Program: bellProgram("after-wide"), Backend: "perfect", Shots: 8})
	if res := next.Result(); res == nil || res.Report == nil || res.Report.Result.Shots != 8 {
		t.Fatal("job after the oversized one returned no result")
	}
}

// The engine span of a job run through the micro-architecture reports
// how many shot batches the engine ran, as direct-QX jobs do.
func TestRealisticEngineSpanShotBatches(t *testing.T) {
	s := New(Config{Seed: 9})
	s.AddBackend(NewStackBackend(core.NewSuperconducting(9)), 1)
	s.Start()
	t.Cleanup(s.Stop)
	j := awaitJob(t, s, Request{Program: bellProgram("batches"), Backend: "superconducting", Shots: 4})
	var engine *obs.SpanView
	var walk func(v *obs.SpanView)
	walk = func(v *obs.SpanView) {
		if v.Name == "engine" {
			engine = v
		}
		for _, c := range v.Children {
			walk(c)
		}
	}
	walk(j.trace.View().Root)
	if engine == nil {
		t.Fatal("superconducting job has no engine span")
	}
	if engine.Attrs["shot_batches"] != "1" {
		t.Errorf("engine span attrs %v, want shot_batches=1", engine.Attrs)
	}
}
