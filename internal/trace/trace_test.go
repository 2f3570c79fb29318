package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"pipecache/internal/cache"
	"pipecache/internal/isa"
	"pipecache/internal/program"
	"pipecache/internal/stats"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	refs := []Ref{
		{IFetch, 0, 0x1000},
		{Load, 5, 0xdeadbee},
		{Store, 63, 0},
		{IFetch, 1, 0xffffffff},
	}
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 4 {
		t.Fatalf("count = %d", w.Count())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range refs {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := rng.Range(0, 200)
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		refs := make([]Ref, n)
		for i := range refs {
			refs[i] = Ref{
				Kind: Kind(rng.Intn(3)),
				PID:  uint8(rng.Intn(64)),
				Addr: uint32(rng.Uint64()),
			}
			if w.Write(refs[i]) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for i := range refs {
			got, err := r.Read()
			if err != nil || got != refs[i] {
				return false
			}
		}
		_, err = r.Read()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWriterRejectsBadRecords(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	if err := w.Write(Ref{PID: 64}); err == nil {
		t.Fatal("pid 64 accepted")
	}
	w2, _ := NewWriter(&buf)
	if err := w2.Write(Ref{Kind: 3}); err == nil {
		t.Fatal("kind 3 accepted")
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("XXXX????"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// PCT1, the retired fixed-record format, is not read.
	if _, err := NewReader(bytes.NewReader([]byte("PCT1\x00\x00\x10\x00\x00\x00"))); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("PCT1 header: %v, want a bad magic error", err)
	}
}

func TestReaderDetectsTruncation(t *testing.T) {
	// A large first delta spans several varint bytes; a cut inside
	// them must surface as an error, not a clean EOF.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Ref{IFetch, 1, 0xdeadbeef})
	w.Flush()
	data := buf.Bytes()[:buf.Len()-2] // cut mid-varint
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err == nil || err == io.EOF {
		t.Fatalf("truncation not detected: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if IFetch.String() != "ifetch" || Load.String() != "load" || Store.String() != "store" {
		t.Fatal("kind strings")
	}
	if Kind(9).String() != "kind(9)" {
		t.Fatal("unknown kind string")
	}
}

func TestReplayCountsAndDrivesCaches(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Ref{IFetch, 0, 0})
	w.Write(Ref{IFetch, 0, 0})
	w.Write(Ref{Load, 0, 100})
	w.Write(Ref{Store, 0, 100})
	w.Flush()
	r, _ := NewReader(&buf)
	ic, _ := cache.New(cache.Config{SizeKW: 1, BlockWords: 4, Assoc: 1, WriteBack: true})
	dc, _ := cache.New(cache.Config{SizeKW: 1, BlockWords: 4, Assoc: 1, WriteBack: true})
	st, err := Replay(r, ic, dc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Refs != 4 || st.IFetches != 2 || st.Loads != 1 || st.Stores != 1 {
		t.Fatalf("stats %+v", st)
	}
	if ic.Stats().Misses() != 1 || ic.Stats().Accesses() != 2 {
		t.Fatalf("icache stats %+v", ic.Stats())
	}
	if dc.Stats().Misses() != 1 {
		t.Fatalf("dcache stats %+v", dc.Stats())
	}
}

func TestReplayNilCaches(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Ref{Load, 0, 1})
	w.Flush()
	r, _ := NewReader(&buf)
	if _, err := Replay(r, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMixInterleavesQuanta(t *testing.T) {
	mk := func(pid uint8, n int) *Reader {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		for i := 0; i < n; i++ {
			w.Write(Ref{IFetch, pid, uint32(i)})
		}
		w.Flush()
		r, _ := NewReader(&buf)
		return r
	}
	var out bytes.Buffer
	w, _ := NewWriter(&out)
	if err := Mix(w, 2, mk(1, 5), mk(2, 3)); err != nil {
		t.Fatal(err)
	}
	r, _ := NewReader(&out)
	var pids []uint8
	for {
		ref, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, ref.PID)
	}
	want := []uint8{1, 1, 2, 2, 1, 1, 2, 1}
	if len(pids) != len(want) {
		t.Fatalf("got %v, want %v", pids, want)
	}
	for i := range want {
		if pids[i] != want[i] {
			t.Fatalf("got %v, want %v", pids, want)
		}
	}
}

func TestCaptureRecordsProgramStream(t *testing.T) {
	// A two-block loop captured through the identity (b=0) translation
	// produces one ifetch per instruction and the data refs.
	bd := program.NewBuilder("cap", 0x100)
	main := bd.StartProc("main")
	b0 := bd.NewBlock()
	bd.Load(b0, isa.T0, isa.GP, 0, program.MemBehavior{Kind: program.MemGP, Offset: 0})
	bd.ALU(b0, isa.ADDU, isa.T1, isa.T0, isa.A0)
	bd.Jump(b0, b0)
	bd.SetEntry(main)
	p, err := bd.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p.Data = program.DataLayout{GPBase: 0x1000, GPSize: 64, StackBase: 0x2000, FrameSize: 64}

	xlat, err := schedTranslate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	cap := &Capture{W: w, Xlat: xlat, PID: 3}
	it := mustInterp(t, p, 7)
	it.Run(30, cap)
	if cap.Err() != nil {
		t.Fatal(cap.Err())
	}
	w.Flush()

	r, _ := NewReader(&buf)
	st, err := Replay(r, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 3 instructions per iteration, 10 iterations: 30 fetches, 10 loads.
	if st.IFetches != 30 || st.Loads != 10 {
		t.Fatalf("stats %+v", st)
	}
}
