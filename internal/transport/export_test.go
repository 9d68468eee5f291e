package transport

// FreeKeep is the cap of each free list, in buffers.
const FreeKeep = freeKeep

// Buffers reports, for the process-wide free lists of encode blocks and
// of read buffers, how many buffers are taken and not given back, and
// how many each list keeps.
func Buffers() (blocksOut, bufsOut, blocksKept, bufsKept int) {
	blocksOut, blocksKept = blocks.counts()
	bufsOut, bufsKept = readBufs.counts()
	return
}

func (f *freeList) counts() (out, kept int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.out, len(f.free)
}

// HeldBlocks reports how many of the endpoint's links hold an open
// encode block, and how many frames its replay rings hold.
func (t *TCP) HeldBlocks() (open, unacked int) {
	for _, l := range t.allLinks() {
		l.mu.Lock()
		if l.cur != nil {
			open++
		}
		if l.r != nil {
			unacked += len(l.r.ring)
		}
		l.mu.Unlock()
	}
	return
}
