package core

import (
	"strings"
	"testing"

	"repro/internal/openql"
	"repro/internal/qx"
	"repro/internal/target"
	"repro/internal/topology"
)

// Re-calibrating a device must change the stack's compile fingerprint —
// that is what invalidates compile-cache entries built against the stale
// calibration — while identical calibration must not.
func TestCompileFingerprintTracksCalibration(t *testing.T) {
	base := NewSuperconducting(1)
	ref := base.CompileFingerprint()

	dev := target.Superconducting()
	dev.Calibration.SetEdgeError(0, 9, 0.2)
	recal, err := NewStackForDevice(dev, 1)
	if err != nil {
		t.Fatal(err)
	}
	if recal.CompileFingerprint() == ref {
		t.Error("re-calibrated device shares the compile fingerprint")
	}

	same, err := NewStackForDevice(target.Superconducting(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if same.CompileFingerprint() != ref {
		t.Error("identical device produces a different compile fingerprint")
	}
	if !strings.Contains(ref, "dev="+base.Platform.ContentHash()) {
		t.Error("fingerprint does not embed the device content hash")
	}
}

// NewStackForDevice: calibrated devices run realistic, uncalibrated run
// perfect; preset constructors are equivalent to building from the
// preset devices.
func TestNewStackForDevice(t *testing.T) {
	sc, err := NewStackForDevice(target.Superconducting(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Mode != openql.RealisticQubits || sc.Noise == nil || sc.Microcode == nil {
		t.Error("calibrated device did not produce a realistic stack")
	}
	if *sc.Noise != *qx.Superconducting() {
		t.Errorf("derived superconducting noise %+v != data-sheet model %+v", sc.Noise, qx.Superconducting())
	}

	perfect, err := NewStackForDevice(target.Perfect(5), 7)
	if err != nil {
		t.Fatal(err)
	}
	if perfect.Mode != openql.PerfectQubits || perfect.Noise != nil {
		t.Error("uncalibrated device did not produce a perfect stack")
	}

	bad := target.Perfect(5)
	bad.NumQubits = 0
	if _, err := NewStackForDevice(bad, 7); err == nil {
		t.Error("invalid device accepted")
	}
}

// A custom calibrated device executes end to end through the realistic
// path: compiled against its topology, run through microcode with noise
// derived from its calibration.
func TestCustomDeviceExecutes(t *testing.T) {
	dev, err := target.Parse([]byte(`{
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
	}`))
	if err != nil {
		t.Fatal(err)
	}
	stack, err := NewStackForDevice(dev, 42)
	if err != nil {
		t.Fatal(err)
	}
	p := openql.NewProgram("bell", 4)
	k := openql.NewKernel("bell", 4)
	k.H(0).CNOT(0, 3).MeasureAll() // distance-3 pair forces routing
	p.AddKernel(k)
	rep, err := stack.Execute(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result == nil || rep.Result.Shots != 64 {
		t.Fatal("no result from custom device execution")
	}
	if rep.Mapping == nil || rep.Mapping.AddedSwaps == 0 {
		t.Error("linear custom device did not require routing")
	}
	if rep.EQASM == "" {
		t.Error("realistic custom device produced no eQASM")
	}
}

// NoiseFromDevice averages heterogeneous tables and returns nil without
// calibration.
func TestNoiseFromDevice(t *testing.T) {
	if NoiseFromDevice(target.Perfect(3)) != nil {
		t.Error("uncalibrated device produced a noise model")
	}
	dev := target.Semiconducting()
	dev.Calibration.Qubits[0].ReadoutError = 0.05 // others 0.03
	m := NoiseFromDevice(dev)
	want := (0.05 + 7*0.03) / 8
	if diff := m.ReadoutError - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("averaged readout error %g, want %g", m.ReadoutError, want)
	}
	if m.TwoQubitDepolarizingProb != 1e-2 {
		t.Errorf("uniform two-qubit error %g, want 1e-2", m.TwoQubitDepolarizingProb)
	}
}

// A Clifford program wider than 63 qubits on a calibrated device runs
// on the stabilizer engine through the micro-architecture; its
// bitstring-keyed outcomes must survive both remaps (compacted →
// physical in microarch, physical → logical here) instead of vanishing.
func TestWideGHZOnCalibratedDevice(t *testing.T) {
	const n, width, shots = 66, 70, 10
	topo := topology.Linear(width)
	dev := &target.Device{
		Name:        "linear-70",
		NumQubits:   width,
		CycleTimeNs: 20,
		Gates:       target.NISQGates(1, 2, 15, 10),
		Topology:    topo,
		Calibration: target.Uniform(width, topo, target.QubitCalibration{}, 0),
	}
	stack, err := NewStackForDevice(dev, 7)
	if err != nil {
		t.Fatal(err)
	}
	stack.Engine = qx.EngineAuto
	k := openql.NewKernel("ghz", n).H(0)
	for q := 1; q < n; q++ {
		k.CNOT(q-1, q)
	}
	for q := 0; q < n; q++ {
		k.Measure(q)
	}
	p := openql.NewProgram("ghz", n)
	p.AddKernel(k)
	rep, err := stack.Execute(p, shots)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine != qx.EngineStabilizer || rep.EQASM == "" {
		t.Fatalf("ran on %q (eQASM %d bytes), want the stabilizer behind the micro-architecture", rep.Engine, len(rep.EQASM))
	}
	res := rep.Result
	zeros, ones := strings.Repeat("0", n), strings.Repeat("1", n)
	sum := 0
	for k, c := range res.Outcomes() {
		if s := k.String(); s != zeros && s != ones {
			t.Errorf("impossible GHZ outcome %s", s)
		}
		sum += c
	}
	if sum != shots || res.Shots != shots || res.NumQubits != n {
		t.Errorf("result holds %d counts, Shots=%d on %d qubits; want %d on %d", sum, res.Shots, res.NumQubits, shots, n)
	}
}
