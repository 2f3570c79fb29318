package cpisim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"pipecache/internal/stats"
)

// oracleCPIFor is the definition CPITable.CPIFor must reproduce:
// stats.WeightedHarmonicMean of the per-benchmark BenchResult.CPIFor
// values, weighted by the mix weights.
func oracleCPIFor(r *Result, l int, scheme LoadScheme, icfg, dcfg, ipen, dpen int) (float64, error) {
	values := make([]float64, len(r.Benches))
	weights := make([]float64, len(r.Benches))
	for k := range r.Benches {
		values[k] = r.Benches[k].CPIFor(l, scheme, icfg, dcfg, ipen, dpen)
		weights[k] = r.Benches[k].Weight
	}
	return stats.WeightedHarmonicMean(values, weights)
}

// sameCPI reports whether two (value, error) pairs are equal bit for bit
// and error text for error text.
func sameCPI(got float64, gotErr error, want float64, wantErr error) bool {
	if gotErr != nil || wantErr != nil {
		return fmt.Sprint(gotErr) == fmt.Sprint(wantErr)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// randomResult draws a Result of nb benchmarks with nc cache indices per
// side: zero and negative instruction counts, zero, negative and NaN
// weights, absent and random epsilon histograms, and counters large
// enough that misses x penalty can wrap.
func randomResult(rng *rand.Rand, nb, nc int) *Result {
	count := func() int64 {
		switch rng.IntN(16) {
		case 0:
			return 0
		case 1:
			return rng.Int64() >> rng.IntN(64)
		default:
			return rng.Int64N(1 << 20)
		}
	}
	hist := func() *stats.Hist {
		if rng.IntN(5) == 0 {
			return nil
		}
		h := stats.NewHist(epsBins)
		for range rng.IntN(40) {
			h.AddN(rng.IntN(epsBins+4), uint64(rng.IntN(1000)))
		}
		return h
	}
	r := &Result{}
	for k := range nb {
		b := BenchResult{
			Name:        fmt.Sprint("b", k),
			Insts:       count(),
			BranchStall: count(),
			FillStall:   count(),
			Eps:         hist(),
			EpsBlock:    hist(),
		}
		switch rng.IntN(16) {
		case 0:
			b.Weight = 0
		case 1:
			b.Weight = -rng.Float64()
		case 2:
			b.Weight = math.NaN()
		default:
			b.Weight = rng.Float64()
		}
		if rng.IntN(16) == 0 {
			b.Insts = -b.Insts
		}
		for range nc {
			b.IMisses = append(b.IMisses, count())
			b.DReadMisses = append(b.DReadMisses, count())
			b.DWriteMisses = append(b.DWriteMisses, count())
		}
		r.Benches = append(r.Benches, b)
	}
	return r
}

// FuzzCPITable checks the table against the oracle on random Results and
// random arguments: every load depth an int8 holds, the two schemes and
// an unknown one (which reads the block-restricted histogram, as
// LoadStallFor does), every cache index from -1 (no misses) up, and any
// penalties. Two equal-penalty reads go through the memo, each twice (the
// first read fills the cell, the repeat reads it): ipen itself, and dpen
// folded onto the memo window and one penalty past each of its edges. The
// suite aggregates must be the Result methods' bits.
func FuzzCPITable(f *testing.F) {
	f.Add(uint64(1), uint8(9), int8(2), uint8(0), uint8(1), uint8(2), int32(10), int32(10))
	f.Add(uint64(2), uint8(31), int8(3), uint8(1), uint8(0), uint8(0), int32(0), int32(0))
	f.Add(uint64(3), uint8(0), int8(-1), uint8(2), uint8(3), uint8(1), int32(-7), int32(1<<30))
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8, l int8, scheme, icfg, dcfg uint8, ipen, dpen int32) {
		nb, nc := 1+int(shape%8), int(shape/8%4)
		r := randomResult(rand.New(rand.NewPCG(seed, uint64(shape))), nb, nc)
		tab := NewCPITable(r)
		sc := LoadScheme(scheme % 3)
		ic, dc := int(icfg)%(nc+1)-1, int(dcfg)%(nc+1)-1
		got, gotErr := tab.CPIFor(int(l), sc, ic, dc, int(ipen), int(dpen))
		want, wantErr := oracleCPIFor(r, int(l), sc, ic, dc, int(ipen), int(dpen))
		if !sameCPI(got, gotErr, want, wantErr) {
			t.Fatalf("CPIFor(%d, %v, %d, %d, %d, %d) = %v, %v; oracle %v, %v",
				l, sc, ic, dc, ipen, dpen, got, gotErr, want, wantErr)
		}
		for _, pen := range []int{int(ipen), memoMinPen - 1 + int(uint32(dpen)%(memoPens+2))} {
			want, wantErr := oracleCPIFor(r, int(l), sc, ic, dc, pen, pen)
			for read := range 2 {
				got, gotErr := tab.CPIFor(int(l), sc, ic, dc, pen, pen)
				if !sameCPI(got, gotErr, want, wantErr) {
					t.Fatalf("read %d of CPIFor(%d, %v, %d, %d, %d, %d) = %v, %v; oracle %v, %v",
						read, l, sc, ic, dc, pen, pen, got, gotErr, want, wantErr)
				}
			}
		}
		checkAggregates(t, tab, int(l), sc, ic, dc)
	})
}

// checkAggregates compares the table's suite aggregates at depth l, scheme
// sc and cache indices ic and dc (each -1 to skip it) with the Result
// methods', bit for bit.
func checkAggregates(t *testing.T, tab *CPITable, l int, sc LoadScheme, ic, dc int) {
	t.Helper()
	r := tab.Result()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"BranchCPIComponent", tab.BranchCPIComponent(), r.BranchCPIComponent()},
		{fmt.Sprintf("LoadCPIComponentFor(%d, %v)", l, sc), tab.LoadCPIComponentFor(l, sc), r.LoadCPIComponentFor(l, sc)},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Fatalf("%s = %v, Result %v", c.name, c.got, c.want)
		}
	}
	if ic >= 0 {
		if got, want := tab.IMissRatio(ic), r.IMissRatio(ic); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("IMissRatio(%d) = %v, Result %v", ic, got, want)
		}
	}
	if dc >= 0 {
		if got, want := tab.DMissRatio(dc), r.DMissRatio(dc); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DMissRatio(%d) = %v, Result %v", dc, got, want)
		}
	}
}

// panicOf returns the text of the value f panics with up to any " with
// length" (which names the length of the slice indexed, a column list in
// a table and a benchmark's array in a Result), or "" when f returns.
func panicOf(f func()) (text string) {
	defer func() {
		if v := recover(); v != nil {
			text, _, _ = strings.Cut(fmt.Sprint(v), " with length")
		}
	}()
	f()
	return ""
}

// filled counts the table's memo cells that hold a value.
func filled(tab *CPITable) int {
	n := 0
	for i := range tab.memo {
		if tab.memo[i].Load() != 0 {
			n++
		}
	}
	return n
}

// TestCPITableMatchesResult pins the table to Result.CPIFor on the
// hand-built result, including the cases the oracle cannot speak for: an
// empty result, and a cache index past the shortest benchmark's arrays or
// past every benchmark's, on which both panic with the same index error.
// Equal penalties (memoProbePens) are read twice, first filling and then
// reading the memo; only the in-window reads at a depth and cache indices
// the table holds fill cells.
func TestCPITableMatchesResult(t *testing.T) {
	r := synthetic()
	tab := NewCPITable(r)
	if tab.Result() != r {
		t.Fatal("Result() is not the table's result")
	}
	for l := -1; l <= tableDepths; l++ {
		for _, sc := range []LoadScheme{LoadStatic, LoadDynamic} {
			for ic := -1; ic < 2; ic++ {
				for dc := -1; dc < 2; dc++ {
					for _, pen := range []int{0, 2, 10, 77} {
						got, gotErr := tab.CPIFor(l, sc, ic, dc, pen, pen+1)
						want, wantErr := r.CPIFor(l, sc, ic, dc, pen, pen+1)
						if !sameCPI(got, gotErr, want, wantErr) {
							t.Errorf("CPIFor(%d, %v, %d, %d, %d) = %v, %v; Result %v, %v",
								l, sc, ic, dc, pen, got, gotErr, want, wantErr)
						}
					}
					for _, pen := range memoProbePens {
						want, wantErr := r.CPIFor(l, sc, ic, dc, pen, pen)
						for read := range 2 {
							got, gotErr := tab.CPIFor(l, sc, ic, dc, pen, pen)
							if !sameCPI(got, gotErr, want, wantErr) {
								t.Errorf("read %d of CPIFor(%d, %v, %d, %d, %d, %d) = %v, %v; Result %v, %v",
									read, l, sc, ic, dc, pen, pen, got, gotErr, want, wantErr)
							}
						}
					}
					checkAggregates(t, tab, l, sc, ic, dc)
				}
			}
		}
	}
	// The three in-window pens of memoProbePens, at 4 depths x 2 scheme
	// columns x 2 x 2 cache indices.
	if n, want := filled(tab), 3*tableDepths*2*2*2; n != want {
		t.Errorf("%d memo cells filled, want %d", n, want)
	}

	empty := &Result{}
	if _, err := NewCPITable(empty).CPIFor(0, LoadStatic, -1, -1, 0, 0); fmt.Sprint(err) != "cpisim: empty result" {
		t.Errorf("empty result: err = %v", err)
	}

	short := synthetic()
	short.Benches[1].IMisses = short.Benches[1].IMisses[:1]
	short.Benches[0].DReadMisses = short.Benches[0].DReadMisses[:1]
	shortTab := NewCPITable(short)
	for _, c := range []struct{ ic, dc, ipen, dpen int }{
		{1, -1, 10, 10}, {1, 0, 10, 10}, {1, 0, 10, 11}, {0, 1, 2, 2}, {2, 0, 65, 65}, {0, 2, 3, 3},
	} {
		want := panicOf(func() { _, _ = short.CPIFor(2, LoadStatic, c.ic, c.dc, c.ipen, c.dpen) })
		got := panicOf(func() { _, _ = shortTab.CPIFor(2, LoadStatic, c.ic, c.dc, c.ipen, c.dpen) })
		if want == "" || got != want {
			t.Errorf("CPIFor(2, static, %d, %d, %d, %d) panics with %q; Result with %q",
				c.ic, c.dc, c.ipen, c.dpen, got, want)
		}
	}
	if n := filled(shortTab); n != 0 {
		t.Errorf("reads past the table's indices filled %d memo cells", n)
	}
}

// memoProbePens are the equal penalties the memo tests read: the floor,
// which is the window's low edge, one above it, the high edge, one penalty
// just outside on each side, and a large one.
var memoProbePens = []int{memoMinPen, memoMinPen + 1, memoMinPen + memoPens - 1,
	memoMinPen - 1, memoMinPen + memoPens, 300_000}

// TestCPITableMemoKeepsNoError reads a design point whose CPI turns
// non-positive above a penalty: below it the read is memoized, at and
// above it every read returns Result.CPIFor's error and fills nothing.
func TestCPITableMemoKeepsNoError(t *testing.T) {
	r := synthetic()
	// Benchmark b's cycles at l = 2, static, are 1000+50+10+250 - 131 x pen:
	// zero at pen 10.
	r.Benches[1].IMisses[0] = -131
	tab := NewCPITable(r)
	for _, pen := range []int{5, 10, 11, 40, 5, 10, 11, 40} {
		got, gotErr := tab.CPIFor(2, LoadStatic, 0, -1, pen, pen)
		want, wantErr := r.CPIFor(2, LoadStatic, 0, -1, pen, pen)
		if !sameCPI(got, gotErr, want, wantErr) {
			t.Errorf("CPIFor(2, static, 0, -1, %d, %d) = %v, %v; Result %v, %v", pen, pen, got, gotErr, want, wantErr)
		}
		if (pen >= 10) != (wantErr != nil) {
			t.Fatalf("pen %d: Result.CPIFor err = %v; the fixture is off", pen, wantErr)
		}
	}
	// -1 on the D side is never memoized; read with D index 0 too.
	for _, pen := range []int{5, 40, 5, 40} {
		got, gotErr := tab.CPIFor(2, LoadStatic, 0, 0, pen, pen)
		want, wantErr := r.CPIFor(2, LoadStatic, 0, 0, pen, pen)
		if !sameCPI(got, gotErr, want, wantErr) {
			t.Errorf("CPIFor(2, static, 0, 0, %d, %d) = %v, %v; Result %v, %v", pen, pen, got, gotErr, want, wantErr)
		}
	}
	if n := filled(tab); n != 1 {
		t.Errorf("%d memo cells filled, want 1 (pen 5 at D index 0)", n)
	}
}

// TestCPITableConcurrentFill has goroutines fill one table's memo at once,
// each reading every cell of the window in its own order, twice: every
// read must be Result.CPIFor's answer (make race-ci runs it under the race
// detector).
func TestCPITableConcurrentFill(t *testing.T) {
	r := synthetic()
	tab := NewCPITable(r)
	type read struct{ l, s, ic, dc, pen int }
	var reads []read
	want := map[read]float64{}
	for l := range tableDepths {
		for s, sc := range [2]LoadScheme{LoadStatic, LoadDynamic} {
			for ic := range 2 {
				for dc := range 2 {
					for pen := memoMinPen; pen < memoMinPen+memoPens; pen++ {
						rd := read{l, s, ic, dc, pen}
						cpi, err := r.CPIFor(l, sc, ic, dc, pen, pen)
						if err != nil {
							t.Fatal(err)
						}
						reads = append(reads, rd)
						want[rd] = cpi
					}
				}
			}
		}
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 1))
			order := rng.Perm(len(reads))
			for range 2 {
				for _, k := range order {
					rd := reads[k]
					got, err := tab.CPIFor(rd.l, LoadScheme(rd.s), rd.ic, rd.dc, rd.pen, rd.pen)
					if err != nil || math.Float64bits(got) != math.Float64bits(want[rd]) {
						t.Errorf("goroutine %d: CPIFor(%+v) = %v, %v; Result %v", g, rd, got, err, want[rd])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := filled(tab); n != len(reads) {
		t.Errorf("%d memo cells filled, want %d", n, len(reads))
	}
}

// TestCPITableErrorOrder checks the reduction's checks in the oracle's
// order: at one index a non-positive value is reported before a negative
// weight, an earlier index before a later one, and a zero weight sum only
// after the loop.
func TestCPITableErrorOrder(t *testing.T) {
	for _, c := range []struct {
		name  string
		edit  func(r *Result)
		error string
	}{
		{"zero insts and negative weight", func(r *Result) {
			r.Benches[1].Insts, r.Benches[1].Weight = 0, -1
		}, "stats: non-positive value 0 at index 1"},
		{"negative weight before a later zero", func(r *Result) {
			r.Benches[0].Weight, r.Benches[1].Insts = -0.5, 0
		}, "stats: negative weight -0.5 at index 0"},
		{"zero weights", func(r *Result) {
			r.Benches[0].Weight, r.Benches[1].Weight = 0, 0
		}, "stats: weights sum to zero"},
	} {
		r := synthetic()
		c.edit(r)
		_, err := NewCPITable(r).CPIFor(2, LoadStatic, 0, 0, 10, 10)
		_, want := oracleCPIFor(r, 2, LoadStatic, 0, 0, 10, 10)
		if fmt.Sprint(err) != c.error || fmt.Sprint(want) != c.error {
			t.Errorf("%s: table %v, oracle %v; want %q", c.name, err, want, c.error)
		}
	}
}
