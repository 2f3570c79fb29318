package surface

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"pipecache/internal/cpisim"
)

// bakeGolden bakes the golden lab's surface and decodes it.
func bakeGolden(t *testing.T) *Surface {
	t.Helper()
	d, err := Bake(context.Background(), goldenLab(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	return sf
}

// TestSeedFreshLab: a seeded lab holds the stored passes and Table 1, and
// answers design points, optima and Table 1 with no simulation pass, data
// job, capture or probe.
func TestSeedFreshLab(t *testing.T) {
	sf := bakeGolden(t)
	lab := goldenLab(t)
	if err := sf.Seed(lab); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	passes, err := lab.DefaultPasses(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range passes {
		if !reflect.DeepEqual(p.Benches, sf.d.Passes[i].Benches) {
			t.Errorf("seeded pass %s differs from the stored one", passSections[i])
		}
	}
	if _, err := lab.Best(ctx, lab.Query(), cpisim.LoadStatic, false); err != nil {
		t.Fatal(err)
	}
	t1, err := lab.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(t1.Rows, sf.d.Table1) {
		t.Errorf("Table 1 rows = %+v, want the stored %+v", t1.Rows, sf.d.Table1)
	}
	c := lab.Obs().Snapshot().Counters
	for _, name := range []string{"lab.passes_run", "lab.data_passes", "lab.captures", "lab.table1_probes"} {
		if c[name] != 0 {
			t.Errorf("%s = %d on a seeded lab, want 0", name, c[name])
		}
	}
}

// TestSeedKeepsWarmEntries: seeding a lab whose memo is already warm (a
// lab that baked the surface and then serves from it) keeps the entries
// it has.
func TestSeedKeepsWarmEntries(t *testing.T) {
	lab := goldenLab(t)
	ctx := context.Background()
	warm, err := lab.DefaultPasses(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := bakeGolden(t).Seed(lab); err != nil {
		t.Fatal(err)
	}
	after, err := lab.DefaultPasses(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range warm {
		if after[i] != warm[i] {
			t.Errorf("seeding replaced the memoized pass %s", passSections[i])
		}
	}
	if c := lab.Obs().Snapshot().Counters; c["lab.passes_run"] != int64(len(warm)) {
		t.Errorf("passes_run = %d, want the %d warm-up passes only", c["lab.passes_run"], len(warm))
	}
}

// TestSeedSharedAcrossLabs: one decoded surface seeds several labs at
// once, and each answers concurrently; the labs share the stored results
// read-only (run with -race).
func TestSeedSharedAcrossLabs(t *testing.T) {
	sf := bakeGolden(t)
	var wg sync.WaitGroup
	for range 3 {
		lab := goldenLab(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sf.Seed(lab); err != nil {
				t.Error(err)
				return
			}
			var inner sync.WaitGroup
			for _, scheme := range []cpisim.LoadScheme{cpisim.LoadStatic, cpisim.LoadDynamic} {
				inner.Add(1)
				go func() {
					defer inner.Done()
					if _, err := lab.Best(context.Background(), lab.Query(), scheme, false); err != nil {
						t.Error(err)
					}
					if _, err := lab.Table1(); err != nil {
						t.Error(err)
					}
				}()
			}
			inner.Wait()
			if c := lab.Obs().Snapshot().Counters; c["lab.passes_run"] != 0 || c["lab.table1_probes"] != 0 {
				t.Errorf("a seeded lab simulated: %v", c)
			}
		}()
	}
	wg.Wait()
}
