package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"pipecache/internal/cache"
	"pipecache/internal/cpisim"
)

// TestPolicyInvarianceDirectMapped pins the property the serving tiers
// rely on: the default design space is direct-mapped, where replacement
// policy is a no-op, so the same pass under any policy produces
// bit-identical results (each from its own memo entry).
func TestPolicyInvarianceDirectMapped(t *testing.T) {
	lab, _ := diffLab(t, 0, 1)
	base, err := lab.StaticPass(context.Background(), 1, cache.PolicyLRU)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []cache.Policy{cache.PolicyFIFO, cache.PolicyTreePLRU} {
		got, err := lab.StaticPass(context.Background(), 1, pol)
		if err != nil {
			t.Fatal(err)
		}
		if got == base {
			t.Fatalf("%v pass shared the LRU memo entry", pol)
		}
		if !reflect.DeepEqual(got.Benches, base.Benches) {
			t.Errorf("%v pass differs from LRU on the direct-mapped bank", pol)
		}
	}
}

// TestPolicyPassMemoKeying verifies the memo distinguishes policies but
// memoizes within one: two requests for the same (depth, policy) share a
// result pointer.
func TestPolicyPassMemoKeying(t *testing.T) {
	lab, _ := diffLab(t, 0, 1)
	a, err := lab.StaticPass(context.Background(), 2, cache.PolicyFIFO)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lab.StaticPass(context.Background(), 2, cache.PolicyFIFO)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same (depth, policy) did not hit the memo")
	}
}

// TestFingerprintPolicy pins the compatibility contract: the default
// policy leaves the fingerprint byte-identical to the pre-policy format
// (so existing baked surfaces keep their params-hash), and non-default
// policies change it.
func TestFingerprintPolicy(t *testing.T) {
	lab, _ := diffLab(t, 0, 1)
	base := Fingerprint(lab.Suite, lab.P)
	if strings.Contains(base, "policy=") {
		t.Error("default fingerprint mentions the policy")
	}
	p := lab.P
	p.Policy = cache.PolicyFIFO
	fifo := Fingerprint(lab.Suite, p)
	if fifo == base {
		t.Error("FIFO fingerprint equals the default")
	}
	if !strings.Contains(fifo, "policy=fifo\n") {
		t.Errorf("FIFO fingerprint missing policy line:\n%s", fifo)
	}
}

// TestPolicyStudy runs the ablation on the small differential lab and
// checks its structural invariants: full policy × size coverage, and
// direct-sensible numbers (positive CPI, miss ratios in [0, 1]).
func TestPolicyStudy(t *testing.T) {
	lab, _ := diffLab(t, 0, 2)
	st, err := lab.PolicyStudy(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * len(lab.P.SizesKW); len(st.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(st.Rows), want)
	}
	for _, row := range st.Rows {
		if row.MissRatio < 0 || row.MissRatio > 1 || row.CPI <= 0 || row.TPINs <= 0 {
			t.Errorf("degenerate row %+v", row)
		}
	}
	// Larger caches can only help, and at a fixed size LRU should not
	// lose to FIFO on this suite (the classic ordering; equality is fine).
	best := st.Best(lab.P.SizesKW[len(lab.P.SizesKW)-1])
	if best.CPI > st.Rows[0].CPI {
		t.Errorf("largest-size best CPI %.4f worse than smallest LRU %.4f", best.CPI, st.Rows[0].CPI)
	}
	if !strings.Contains(st.String(), "replacement policy") {
		t.Error("table missing its title")
	}
}

// TestPolicyStudyWorkerInvariance: the study must be bit-identical at any
// worker count (index-ordered row assembly, no reduction races).
func TestPolicyStudyWorkerInvariance(t *testing.T) {
	lab1, _ := diffLab(t, 0, 1)
	lab3, _ := diffLab(t, 0, 3)
	a, err := lab1.PolicyStudy(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lab3.PolicyStudy(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("PolicyStudy differs between worker counts")
	}
}

// TestEvalPointPolicy: at a direct-mapped point, per-request policy
// overrides return the LRU result bit-identically; the policy axis only
// matters to set-associative banks.
func TestEvalPointPolicy(t *testing.T) {
	lab, _ := diffLab(t, 0, 1)
	q := lab.Query()
	dp := DesignPoint{B: 1, L: 1, ISizeKW: 4, DSizeKW: 4, Scheme: cpisim.LoadStatic}
	q.Policy = cache.PolicyLRU
	ev, err := lab.EvalPoint(context.Background(), q, dp)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []cache.Policy{cache.PolicyFIFO, cache.PolicyTreePLRU} {
		q.Policy = pol
		ev2, err := lab.EvalPoint(context.Background(), q, dp)
		if err != nil {
			t.Fatal(err)
		}
		if ev2 != ev {
			t.Errorf("%v point differs from LRU on the direct-mapped space", pol)
		}
	}
}
