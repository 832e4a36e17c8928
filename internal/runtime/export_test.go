package runtime

// RunStepped is Run with the CPU driven one Step at a time, as RunThreads
// drives each thread, instead of by cpu.Run.
func (b *Bootstrap) RunStepped(rc RunConfig) (*RunResult, error) {
	if b.loaded == nil {
		return nil, ErrNotLoaded
	}
	c := b.newCPU(rc)
	for {
		c.Step()
		if res, done := c.Result(); done {
			return b.result(res), nil
		}
	}
}
