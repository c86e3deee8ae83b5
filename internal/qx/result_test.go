package qx

import (
	"maps"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
)

// randomResult builds an n-qubit result holding up to k distinct random
// outcomes.
func randomResult(rng *rand.Rand, n, k int) *Result {
	r := newResult(n, 0)
	words := make([]uint64, n/64+1)
	for i := 0; i < k; i++ {
		clear(words)
		for q := 0; q < n; q++ {
			if rng.Intn(2) == 1 {
				words[q>>6] |= 1 << (uint(q) & 63)
			}
		}
		c := 1 + rng.Intn(5)
		r.addWords(words, c)
		r.Shots += c
	}
	return r
}

// bitCounts reads a result through the width-independent accessor.
func bitCounts(r *Result) map[string]int {
	out := map[string]int{}
	for k, c := range r.Outcomes() {
		out[k.String()] += c
	}
	return out
}

func total(r *Result) int {
	n := 0
	for _, c := range r.Outcomes() {
		n += c
	}
	return n
}

// checkKeying asserts the result uses the map its width calls for.
func checkKeying(t *testing.T, r *Result) {
	t.Helper()
	if wide := r.NumQubits > 63; wide != (r.WideCounts != nil) || (wide && len(r.Counts) != 0) {
		t.Fatalf("%d-qubit result keyed wrongly: %d narrow, %d wide outcomes (WideCounts nil: %v)",
			r.NumQubits, len(r.Counts), len(r.WideCounts), r.WideCounts == nil)
	}
}

// Property: a qubit permutation followed by its inverse is the
// identity, and neither step changes the count total or drops the
// execution diagnostics — on both sides of the 63/64-qubit keying
// boundary.
func TestRemapPermutationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 62, 63, 64, 65, 130} {
		for trial := 0; trial < 25; trial++ {
			r := randomResult(rng, n, 1+rng.Intn(16))
			r.GateErrorsInjected, r.ElapsedNs, r.Batches = 3, 42, 2
			perm := rng.Perm(n)
			inv := make([]int, n)
			for q, src := range perm {
				inv[src] = q
			}
			there := r.Remap(n, perm)
			back := there.Remap(n, inv)
			for _, x := range []*Result{there, back} {
				checkKeying(t, x)
				if total(x) != r.Shots || x.Shots != r.Shots {
					t.Fatalf("n=%d: remap holds %d counts over %d shots, want %d", n, total(x), x.Shots, r.Shots)
				}
				if x.GateErrorsInjected != 3 || x.ElapsedNs != 42 || x.Batches != 2 {
					t.Fatalf("n=%d: remap dropped diagnostics: %+v", n, x)
				}
			}
			if !maps.Equal(bitCounts(back), bitCounts(r)) {
				t.Fatalf("n=%d: permutation then inverse is not the identity", n)
			}
		}
	}
}

// Property: scattering a register into a wider one and gathering it
// back is the identity, across the boundary in both directions
// (narrow→wide→narrow and wide→wider→wide), and a lossy projection
// still keeps every shot.
func TestRemapAcrossWidthBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, w := range [][2]int{{5, 70}, {40, 64}, {63, 64}, {66, 70}, {64, 130}} {
		small, big := w[0], w[1]
		for trial := 0; trial < 25; trial++ {
			r := randomResult(rng, small, 1+rng.Intn(16))
			pos := rng.Perm(big)[:small] // small qubit i lands on big qubit pos[i]
			scatter := make([]int, big)
			for q := range scatter {
				scatter[q] = -1
			}
			for i, p := range pos {
				scatter[p] = i
			}
			wide := r.Remap(big, scatter)
			back := wide.Remap(small, pos)
			checkKeying(t, wide)
			checkKeying(t, back)
			if total(wide) != r.Shots {
				t.Fatalf("%d→%d: scatter holds %d counts, want %d", small, big, total(wide), r.Shots)
			}
			if !maps.Equal(bitCounts(back), bitCounts(r)) {
				t.Fatalf("%d→%d→%d: scatter then gather is not the identity", small, big, small)
			}

			// Projecting a random wide register onto a few of its
			// qubits merges outcomes but loses no shot.
			src := randomResult(rng, big, 1+rng.Intn(16))
			proj := src.Remap(small, pos)
			checkKeying(t, proj)
			if total(proj) != src.Shots {
				t.Fatalf("%d→%d projection holds %d counts, want %d", big, small, total(proj), src.Shots)
			}
		}
	}
}

// Remap reads unmapped, negative and out-of-register sources as 0.
func TestRemapUnmappedQubitsReadZero(t *testing.T) {
	r := newResult(3, 4)
	r.Counts[0b111] = 4
	got := r.Remap(5, []int{2, -1, 9, 0})
	if got.Counts[0b01001] != 4 || len(got.Counts) != 1 {
		t.Errorf("remapped counts %v, want {01001: 4}", got.Counts)
	}
}

// Merge sums outcomes, shots and injected errors, on either keying.
func TestMerge(t *testing.T) {
	for _, n := range []int{4, 80} {
		zeros, ones := strings.Repeat("0", n), strings.Repeat("1", n)
		res, err := NewWithEngine(1, Stabilizer()).Run(circuit.GHZ(n), 50)
		if err != nil {
			t.Fatal(err)
		}
		res.GateErrorsInjected = 2
		a := newResult(n, 0)
		a.Merge(res)
		a.Merge(res)
		checkKeying(t, a)
		if a.Shots != 100 || a.Count(zeros)+a.Count(ones) != 100 || a.GateErrorsInjected != 4 {
			t.Errorf("n=%d: merged %d shots, %d legal counts, %d errors; want 100, 100, 4",
				n, a.Shots, a.Count(zeros)+a.Count(ones), a.GateErrorsInjected)
		}
	}
}

// Outcomes stops when the consumer breaks out of the loop.
func TestOutcomesEarlyExit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{8, 90} {
		r := randomResult(rng, n, 10)
		seen := 0
		for range r.Outcomes() {
			seen++
			break
		}
		if seen != 1 {
			t.Errorf("n=%d: loop ran %d times after break", n, seen)
		}
	}
}

// The dense engines refuse registers wider than a state vector can
// hold instead of panicking; a Clifford circuit that wide still runs
// on the stabilizer engine through auto dispatch.
func TestDenseEnginesRejectWideRegisters(t *testing.T) {
	c := circuit.New("wide-t", 31)
	c.T(0)
	for _, e := range []Engine{Optimized(), Reference(), Auto()} {
		sim := NewWithEngine(1, e)
		if _, err := sim.Run(c, 1); err == nil || !strings.Contains(err.Error(), "dense engines") {
			t.Errorf("%s Run on 31 qubits: err = %v, want the dense-limit error", e.Name(), err)
		}
		if e.Name() == EngineAuto {
			continue
		}
		if _, err := sim.RunState(c); err == nil {
			t.Errorf("%s RunState on 31 qubits succeeded", e.Name())
		}
	}
	if _, err := NewWithEngine(1, Auto()).Run(circuit.GHZ(31), 4); err != nil {
		t.Errorf("31-qubit Clifford circuit under auto: %v", err)
	}
}
