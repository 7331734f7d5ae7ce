package hybrid

import (
	"context"

	"repro/internal/array"
	"repro/internal/obs"
)

// RunCtx is Run with a "hybrid.run" span recorded when ctx carries a
// tracer.
func (s *System) RunCtx(ctx context.Context, m *array.Machine, cycles int) (*array.Trace, error) {
	_, span := obs.Start(ctx, "hybrid.run",
		obs.Int("cycles", int64(cycles)), obs.Int("elements", int64(s.NumElements())))
	defer span.End()
	return s.Run(m, cycles)
}
