package runtime

// RunStepped is Run with the CPU driven one Step at a time, as RunThreads
// drives each thread, instead of by cpu.Run.
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
