package surface

import (
	"context"
	"fmt"

	"pipecache/internal/core"
)

// Bake runs (or reads from lab's memo) the default passes and Table 1's
// probe into a Data ready for Encode. Both are bit-identical at every
// Params.SweepWorkers setting, so baked surfaces are reproducible
// artifacts.
func Bake(ctx context.Context, lab *core.Lab) (*Data, error) {
	passes, err := lab.DefaultPasses(ctx)
	if err != nil {
		return nil, err
	}
	t1, err := lab.Table1()
	if err != nil {
		return nil, fmt.Errorf("surface: baking table 1: %w", err)
	}
	return &Data{
		ParamsHash: HashParams(core.Fingerprint(lab.Suite, lab.P)),
		Passes:     passes,
		Table1:     t1.Rows,
	}, nil
}
