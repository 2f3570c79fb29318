package surface

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"pipecache/internal/core"
	"pipecache/internal/cpisim"
	"pipecache/internal/stats"
)

// sampleData builds a small synthetic surface exercising every field the
// layout stores, including values a live pass never produces (a negative
// counter, a negative-zero weight, an empty ladder, a missing histogram),
// so the codec is pinned on more than the shapes the simulator happens to
// emit.
func sampleData() *Data {
	d := &Data{ParamsHash: sha256.Sum256([]byte("params"))}
	for i := range passSections {
		eps := stats.NewHist(3)
		eps.AddN(0, 7)
		eps.AddN(2, 1<<40)
		eps.AddN(9, 3) // overflow
		b := cpisim.BenchResult{
			Name: "gcc", Weight: 0.25, Insts: 1_000_000 + int64(i), CTIs: 123_456,
			BranchStall: -1, FillStall: math.MaxInt64, BTBOutcomes: [5]int64{1, 2, 3, 4, 5},
			Loads: 9, LoadUses: 8, LoadStall: 7, IFetches: 6, DReads: 5, DWrites: 4,
			IMisses: []int64{10, 5}, DReadMisses: []int64{3, 1}, DWriteMisses: []int64{2, 0},
			Eps: eps, EpsBlock: stats.NewHist(1),
		}
		odd := cpisim.BenchResult{Name: "yacc", Weight: math.Copysign(0, -1),
			IMisses: []int64{}, DReadMisses: []int64{}, DWriteMisses: []int64{}}
		d.Passes = append(d.Passes, &cpisim.Result{Benches: []cpisim.BenchResult{b, odd}})
	}
	d.Table1 = []core.Table1Row{
		{Name: "gcc", Desc: "compiler", Kind: "int", MInsts: 22.7, LoadPct: 5e-324, StorePct: 1e308, CTIPct: 16.25},
		{Name: "yacc", Desc: "parser generator", Kind: "int", MInsts: 1.1},
	}
	return d
}

// roundTrip encodes d, decodes it, and checks that re-encoding the
// decoded content reproduces the bytes (and therefore the hash).
func roundTrip(t *testing.T, d *Data) *Surface {
	t.Helper()
	b, err := Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if s.ParamsHash() != d.ParamsHash || s.Size() != len(b) || s.NumPasses() != len(passSections) {
		t.Fatalf("header: params %x size %d passes %d", s.ParamsHash(), s.Size(), s.NumPasses())
	}
	b2, err := Encode(s.d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatal("re-encoding is not byte-identical")
	}
	return s
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := sampleData()
	s := roundTrip(t, d)
	for i := range d.Passes {
		if !reflect.DeepEqual(s.d.Passes[i].Benches, d.Passes[i].Benches) {
			t.Errorf("pass %s did not round-trip:\n got %+v\nwant %+v", passSections[i], s.d.Passes[i].Benches, d.Passes[i].Benches)
		}
	}
	if !reflect.DeepEqual(s.d.Table1, d.Table1) {
		t.Errorf("Table 1 did not round-trip:\n got %+v\nwant %+v", s.d.Table1, d.Table1)
	}
}

// TestLivePassesRoundTrip: a live pass of each kind, static and BTB,
// round-trips bit for bit — counters, weights, miss ladders, the BTB
// outcomes and both epsilon histograms.
func TestLivePassesRoundTrip(t *testing.T) {
	lab := goldenLab(t)
	d, err := Bake(context.Background(), lab)
	if err != nil {
		t.Fatal(err)
	}
	s := roundTrip(t, d)
	for i, name := range passSections {
		got, want := s.d.Passes[i].Benches, d.Passes[i].Benches
		if !reflect.DeepEqual(got, want) {
			t.Errorf("live pass %s did not round-trip:\n got %+v\nwant %+v", name, got, want)
		}
		if want[0].Eps.Total() == 0 || want[0].IMisses[0] == 0 {
			t.Errorf("live pass %s is degenerate: %+v", name, want[0])
		}
	}
	if btb := d.Passes[len(passSections)-1]; btb.Benches[0].BTBOutcomes == [5]int64{} {
		t.Error("the BTB pass recorded no BTB outcomes")
	}
	if !reflect.DeepEqual(s.d.Table1, d.Table1) {
		t.Errorf("Table 1 did not round-trip:\n got %+v\nwant %+v", s.d.Table1, d.Table1)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	b, err := Encode(sampleData())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte) []byte{
		"empty":            func(b []byte) []byte { return nil },
		"short header":     func(b []byte) []byte { return b[:10] },
		"bad magic":        func(b []byte) []byte { b[0] = 'X'; return b },
		"truncated body":   func(b []byte) []byte { return b[:len(b)-5] },
		"flipped payload":  func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b },
		"flipped sections": func(b []byte) []byte { b[68] ^= 0x7F; return b },
	}
	for name, corrupt := range cases {
		cp := append([]byte(nil), b...)
		if _, err := Decode(corrupt(cp)); err == nil {
			t.Errorf("%s: Decode accepted corrupt input", name)
		}
	}
}

// TestDecodeRefusesPSF1: a PSF1 artifact stored answers, not passes, so a
// PSF2 reader refuses it by version instead of misparsing it.
func TestDecodeRefusesPSF1(t *testing.T) {
	b, err := Encode(sampleData())
	if err != nil {
		t.Fatal(err)
	}
	b[3] = '1'
	_, err = Decode(b)
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("PSF1: err = %v, want a refusal naming version 1", err)
	}
}

// withSections re-frames d's encoded payload with extra sections in
// front, under a recomputed payload hash.
func withSections(t *testing.T, d *Data, extra ...[]byte) []byte {
	t.Helper()
	b, err := Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	r := &reader{b: b[68:]}
	n, err := r.uvarint()
	if err != nil {
		t.Fatal(err)
	}
	payload := binary.AppendUvarint(nil, n+uint64(len(extra)))
	for _, s := range extra {
		payload = append(payload, s...)
	}
	payload = append(payload, r.b[r.off:]...)
	sum := sha256.Sum256(payload)
	out := append([]byte(nil), b[:36]...)
	out = append(out, sum[:]...)
	return append(out, payload...)
}

// TestDecodeSkipsUnknownSections pins the additive-evolution rule: a
// PSF2 reader must ignore sections it does not know instead of erroring,
// so new sections never force a magic bump — while a repeated known
// section is corruption.
func TestDecodeSkipsUnknownSections(t *testing.T) {
	d := sampleData()
	s, err := Decode(withSections(t, d, appendSection(nil, "wavelets", []byte{1, 2, 3})))
	if err != nil {
		t.Fatalf("unknown section was not skipped: %v", err)
	}
	if !reflect.DeepEqual(s.d.Table1, d.Table1) || s.NumPasses() != len(passSections) {
		t.Fatal("known sections did not decode around the unknown one")
	}
	dup := appendSection(nil, secTable1, encodeTable1(d.Table1))
	if _, err := Decode(withSections(t, d, dup)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate section: err = %v", err)
	}
}
