package trace

import (
	"pipecache/internal/interp"
	"pipecache/internal/sched"
)

// Capture is an interp.EventSink that records a process's reference
// stream — instruction fetches through a delay-slot translation, plus data
// references — into a Writer.
type Capture struct {
	W    *Writer
	Xlat *sched.Translation
	PID  uint8

	skip int
	err  error
}

// Err returns the first write error, if any; the interpreter has no error
// channel so captures fail quietly and report here.
func (c *Capture) Err() error { return c.err }

func (c *Capture) write(k Kind, addr uint32) {
	if c.err != nil {
		return
	}
	c.err = c.W.Write(Ref{Kind: k, PID: c.PID, Addr: addr})
}

func (c *Capture) fetch(addr uint32, n int) {
	for i := 0; i < n; i++ {
		c.write(IFetch, addr+uint32(i))
	}
}

// Events implements interp.EventSink. Block entries become fetches of the
// translated block, and taken CTIs apply the translation-file rule
// (sched.BlockXlat): squashed fetches after a not-taken prediction, a
// delay-slot skip into the target after a taken one. Dependency distances
// are not part of an address trace.
func (c *Capture) Events(kind []uint8, a []uint32, _ []uint8) {
	for i, k := range kind {
		switch interp.EventKind(k) {
		case interp.EvBlock:
			c.fetch(c.Xlat.Fetches(int(a[i]), c.skip))
			c.skip = 0
		case interp.EvMemLoad:
			c.write(Load, a[i])
		case interp.EvMemStore:
			c.write(Store, a[i])
		case interp.EvCTITaken:
			x := &c.Xlat.Blocks[a[i]]
			c.fetch(x.SquashAddr, x.SquashN)
			c.skip = x.Skip
		}
	}
}
