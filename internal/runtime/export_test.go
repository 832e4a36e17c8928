package runtime

import "deflection/internal/cpu"

// RunStepped is Run with the CPU driven one Step at a time instead of by
// cpu.Run: the Step-loop reference that Run must match.
func (b *Bootstrap) RunStepped(rc RunConfig) (*RunResult, error) {
	if b.loaded == nil {
		return nil, ErrNotLoaded
	}
	l := b.encl.Layout
	c := b.newCPU(rc, l.StackHi, l.ShadowBase, rc.AEXSeed)
	for {
		c.Step()
		if res, done := c.Result(); done {
			return b.result(res), nil
		}
	}
}

// RunThreadsStepped is RunThreads with every time slice run one Step at a
// time: the reference that RunThreads must match.
func (b *Bootstrap) RunThreadsStepped(n int, rc RunConfig, sliceInsts uint64) ([]ThreadResult, error) {
	return b.runThreads(n, rc, sliceInsts, func(c *cpu.CPU, end uint64) (cpu.Result, bool) {
		for c.Insts() < end {
			c.Step()
			if res, done := c.Result(); done {
				return res, true
			}
		}
		return c.Result()
	})
}

// Outputs returns the sealed messages sent so far.
func (b *Bootstrap) Outputs() [][]byte { return b.outputs }
