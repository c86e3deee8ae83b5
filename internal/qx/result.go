package qx

import (
	"fmt"
	"iter"
	"sort"
	"strings"
)

// Result aggregates the outcome of a multi-shot execution. The paper notes
// that quantum accelerators aggregate measurement statistics over multiple
// runs inside the accelerator itself; Result is that aggregate.
// Consumers read outcomes through Outcomes, Count, Top and Histogram,
// re-register them with Remap and combine them with Merge — never by
// ranging over Counts and WideCounts, whose split is Result's own.
type Result struct {
	NumQubits int
	Shots     int
	// Counts maps a measured basis-state index to its occurrence count.
	Counts map[int]int
	// WideCounts replaces Counts on registers too wide for an int index
	// (more than 63 qubits — stabilizer-engine territory): keys are
	// bitstrings with qubit 0 as the rightmost character, exactly the
	// BitString rendering of narrow outcomes. Nil on narrow registers;
	// when non-nil, Counts is empty.
	WideCounts map[string]int
	// GateErrorsInjected counts stochastic Pauli errors inserted by the
	// noise model across all shots (diagnostic).
	GateErrorsInjected int
	// ElapsedNs is the measured wall time of the execution that produced
	// this result, and Batches the number of parallel shot batches it ran
	// as (1 for a serial run). Both are observability diagnostics set by
	// Simulator.Run/RunParallel — excluded from determinism contracts and
	// never part of result equality (compare Counts).
	ElapsedNs int64
	Batches   int
}

// maxNarrowQubits is the widest register whose outcomes key Counts by
// int index; wider registers key WideCounts by bitstring.
const maxNarrowQubits = 63

// newResult returns an empty n-qubit result keyed for its width.
func newResult(n, shots int) *Result {
	r := &Result{NumQubits: n, Shots: shots, Counts: map[int]int{}}
	if n > maxNarrowQubits {
		r.WideCounts = map[string]int{}
	}
	return r
}

// Key is one measured basis state of a Result, whatever the register
// width.
type Key struct {
	n    int
	idx  int    // the basis-state index on narrow registers
	wide string // the bitstring (qubit 0 rightmost) on wide registers
}

// Bit reports whether qubit q reads 1 in the outcome; qubits outside
// the register read 0.
func (k Key) Bit(q int) bool {
	if k.wide != "" {
		return q >= 0 && q < len(k.wide) && k.wide[len(k.wide)-1-q] == '1'
	}
	return k.idx>>uint(q)&1 == 1 // uint(q) overflows the shift for q < 0
}

// String renders the outcome as a bitstring with qubit 0 rightmost,
// matching BitString.
func (k Key) String() string {
	if k.wide != "" {
		return k.wide
	}
	return BitString(k.idx, k.n)
}

// Outcomes yields every distinct measured outcome with its count, on
// registers of any width. The order is unspecified: accumulate
// order-independently or sort (as Top does).
func (r *Result) Outcomes() iter.Seq2[Key, int] {
	return func(yield func(Key, int) bool) {
		//qlint:nondeterministic-ok order is documented as unspecified; Top sorts, every other consumer accumulates
		for idx, c := range r.Counts {
			if !yield(Key{n: r.NumQubits, idx: idx}, c) {
				return
			}
		}
		//qlint:nondeterministic-ok order is documented as unspecified; Top sorts, every other consumer accumulates
		for bits, c := range r.WideCounts {
			if !yield(Key{n: r.NumQubits, wide: bits}, c) {
				return
			}
		}
	}
}

// Merge adds o's outcomes, shots and injected gate errors into r. Both
// results must describe the same register; ElapsedNs and Batches are
// left to the caller, which knows how the runs overlapped.
func (r *Result) Merge(o *Result) {
	for k, c := range o.Outcomes() {
		if r.WideCounts != nil {
			r.WideCounts[k.String()] += c
		} else {
			r.Counts[k.idx] += c
		}
	}
	r.Shots += o.Shots
	r.GateErrorsInjected += o.GateErrorsInjected
}

// Remap re-registers the outcomes on n qubits: output qubit q reads
// input qubit from[q], and reads 0 where from[q] is negative, names a
// qubit outside the input register, or lies beyond len(from). Shots,
// injected gate errors, batches and elapsed time carry over, and the
// output is keyed for its own width, so a wide register can remap onto
// a narrow one and back. This is how the micro-architecture expands its
// compacted register to physical positions and how core.Stack returns
// physical outcomes in the program's logical order.
func (r *Result) Remap(n int, from []int) *Result {
	out := newResult(n, r.Shots)
	out.GateErrorsInjected, out.ElapsedNs, out.Batches = r.GateErrorsInjected, r.ElapsedNs, r.Batches
	words := make([]uint64, n/64+1)
	for k, c := range r.Outcomes() {
		clear(words)
		for q, src := range from[:min(n, len(from))] {
			if k.Bit(src) {
				words[q>>6] |= 1 << (uint(q) & 63)
			}
		}
		out.addWords(words, c)
	}
	return out
}

// Probability returns the empirical probability of basis state idx.
func (r *Result) Probability(idx int) float64 {
	if r.Shots == 0 {
		return 0
	}
	return float64(r.Counts[idx]) / float64(r.Shots)
}

// Count returns the occurrence count of the outcome rendered as a
// bitstring (qubit 0 rightmost), transparently reading Counts or
// WideCounts. It is the register-width-independent accessor.
func (r *Result) Count(bits string) int {
	if r.WideCounts != nil {
		return r.WideCounts[bits]
	}
	idx := 0
	for _, ch := range bits {
		idx <<= 1
		if ch == '1' {
			idx |= 1
		}
	}
	return r.Counts[idx]
}

// Top returns the k most frequent outcomes in descending order.
func (r *Result) Top(k int) []Outcome {
	out := make([]Outcome, 0, r.distinct())
	for key, c := range r.Outcomes() {
		out = append(out, Outcome{Index: key.idx, Bits: key.String(), Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Bits < out[j].Bits
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// distinct returns the number of distinct outcomes.
func (r *Result) distinct() int { return len(r.Counts) + len(r.WideCounts) }

// addWords adds count occurrences of one outcome delivered as packed
// register words.
func (r *Result) addWords(words []uint64, count int) {
	if r.WideCounts != nil {
		r.WideCounts[wordsBitString(words, r.NumQubits)] += count
		return
	}
	r.Counts[int(words[0])] += count
}

// countBits tallies one outcome delivered as a measured-bits map.
func (r *Result) countBits(bits map[int]int) {
	var narrow [1]uint64
	words := narrow[:]
	if r.WideCounts != nil {
		words = make([]uint64, r.NumQubits/64+1)
	}
	//qlint:nondeterministic-ok order-independent: ORs disjoint bits into packed words; any visit order builds the same mask
	for q, b := range bits {
		if b == 1 {
			words[q>>6] |= 1 << (uint(q) & 63)
		}
	}
	r.addWords(words, 1)
}

// wordsBitString renders packed register words as an n-character
// bitstring with qubit 0 rightmost, matching BitString.
func wordsBitString(words []uint64, n int) string {
	buf := make([]byte, n)
	for q := 0; q < n; q++ {
		buf[n-1-q] = '0' + byte((words[q>>6]>>(uint(q)&63))&1)
	}
	return string(buf)
}

// Best returns the most frequent outcome index, the lowest on ties.
func (r *Result) Best() int {
	if top := r.Top(1); len(top) > 0 {
		return top[0].Index
	}
	return 0
}

// Outcome is one (basis state, count) pair. Index is meaningful only on
// registers of at most 63 qubits; Bits is always the bitstring
// rendering (qubit 0 rightmost).
type Outcome struct {
	Index int
	Bits  string
	Count int
}

// BitString renders idx as a binary string of width n with qubit 0 as the
// rightmost character (matching the amplitude-index convention).
func BitString(idx, n int) string {
	return fmt.Sprintf("%0*b", n, idx)
}

// Histogram renders the result as sorted "bitstring: count" lines.
func (r *Result) Histogram() string {
	var b strings.Builder
	for _, o := range r.Top(r.distinct()) {
		fmt.Fprintf(&b, "%s: %d (%.3f)\n", o.Bits, o.Count, float64(o.Count)/float64(r.Shots))
	}
	return b.String()
}
