package cpisim

import (
	"fmt"
	"math"
	"math/rand/v2"
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
// penalties.
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
	})
}

// TestCPITableMatchesResult pins the table to Result.CPIFor on the
// hand-built result, including the cases the oracle cannot speak for: an
// empty result, and a cache index past the shortest benchmark's arrays,
// on which both panic.
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
				}
			}
		}
	}

	empty := &Result{}
	if _, err := NewCPITable(empty).CPIFor(0, LoadStatic, -1, -1, 0, 0); fmt.Sprint(err) != "cpisim: empty result" {
		t.Errorf("empty result: err = %v", err)
	}

	short := synthetic()
	short.Benches[1].IMisses = short.Benches[1].IMisses[:1]
	func() {
		defer func() {
			if recover() == nil {
				t.Error("an I index past the shortest benchmark's misses did not panic")
			}
		}()
		_, _ = NewCPITable(short).CPIFor(0, LoadStatic, 1, -1, 10, 10)
	}()
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
