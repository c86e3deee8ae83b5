package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/target"
)

func TestStreamsAreByteReproducible(t *testing.T) {
	for _, w := range workloadNames {
		a, err := newStream(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newStream(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		other, err := newStream(w, 8)
		if err != nil {
			t.Fatal(err)
		}
		hashes := map[string]string{}
		for c := 0; c < 2; c++ {
			ha, err := a.Hash(c)
			if err != nil {
				t.Fatal(err)
			}
			hb, _ := b.Hash(c)
			ho, _ := other.Hash(c)
			if ha != hb {
				t.Errorf("%s client %d: same seed, hashes %s and %s", w, c, ha, hb)
			}
			if ha == ho {
				t.Errorf("%s client %d: seeds 7 and 8 give the same stream", w, c)
			}
			if prev, dup := hashes[ha]; dup {
				t.Errorf("%s: clients %s and %d share a stream", w, prev, c)
			}
			hashes[ha] = string(rune('0' + c))
			for i := 0; i < 32; i++ {
				oa, _ := a.Op(c, i)
				ob, _ := b.Op(c, i)
				if !reflect.DeepEqual(oa, ob) {
					t.Fatalf("%s op (%d,%d) differs between two generations", w, c, i)
				}
			}
		}
	}
}

func TestHotWorkingSet(t *testing.T) {
	st, err := newStream(hotSubmit, 3)
	if err != nil {
		t.Fatal(err)
	}
	perBackend := map[string]int{}
	for k, p := range st.set {
		perBackend[p.Backend]++
		if p.Qubits < 2 || p.Qubits > 4 {
			t.Errorf("program %d has %d qubits, want 2-4", k, p.Qubits)
		}
		if p.Backend == superconducting && strings.Contains(p.CQASM, "measure_all") {
			t.Errorf("superconducting program %d uses measure_all", k)
		}
	}
	want := map[string]int{superconducting: 12, perfect: 2, semiconducting: 2}
	if !reflect.DeepEqual(perBackend, want) {
		t.Errorf("working set per backend %v, want %v", perBackend, want)
	}
	// 75% of ops land on superconducting, so the median is in that mode.
	sc := 0
	for i := 0; i < 4000; i++ {
		op, _ := st.Op(0, i)
		if op.Backend == superconducting {
			sc++
		}
	}
	if sc < 2800 || sc > 3200 {
		t.Errorf("%d of 4000 ops on superconducting, want about 3000", sc)
	}
}

func TestColdStreamNeverRepeatsAPrograms(t *testing.T) {
	st, err := newStream(coldCompile, 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	overrides := 0
	const n = 600
	for c := 0; c < 2; c++ {
		for i := 0; i < n; i++ {
			op, err := st.Op(c, i)
			if err != nil {
				t.Fatal(err)
			}
			if op.Qubits < 3 || op.Qubits > 5 || op.Shots != 1 {
				t.Fatalf("op (%d,%d): %d qubits, %d shots", c, i, op.Qubits, op.Shots)
			}
			if !op.Override() {
				if seen[op.CQASM] {
					t.Fatalf("op (%d,%d) repeats an earlier program", c, i)
				}
				seen[op.CQASM] = true
				continue
			}
			overrides++
			src, _ := st.Op(c, op.Source)
			if src.Override() || src.CQASM != op.CQASM || i-op.Source > coldLookback+4 {
				t.Fatalf("override op (%d,%d) does not re-send a recent fresh program (source %d)", c, i, op.Source)
			}
			dev := target.Superconducting()
			if op.Backend == semiconducting {
				dev = target.Semiconducting()
			}
			if err := dev.WithCalibration(op.Calibration).Validate(); err != nil {
				t.Fatalf("override op (%d,%d): drifted calibration invalid: %v", c, i, err)
			}
		}
	}
	if share := float64(overrides) / (2 * n); share < 0.08 || share > 0.17 {
		t.Errorf("override share %.3f, want about %.3f", share, coldOverrideShare)
	}
}
