package cache

import "subthreads/internal/mem"

// Banks models contention on a banked structure (the 4-bank L2, the 2-bank
// L1 data cache, or main memory, per Table 1). Each bank serves one access
// per occupancy window; an access that arrives while its bank is busy queues
// and sees the queueing delay added to its latency.
type Banks struct {
	nextFree  []uint64
	occupancy uint64

	// Conflicts counts accesses that had to queue.
	Conflicts uint64
}

// NewBanks builds a contention model with n banks, each able to accept a new
// access every occupancy cycles.
func NewBanks(n int, occupancy uint64) *Banks {
	if n < 1 || occupancy < 1 {
		panic("cache: banks need n >= 1 and occupancy >= 1")
	}
	return &Banks{nextFree: make([]uint64, n), occupancy: occupancy}
}

// Access reserves the bank serving line starting at cycle now and returns the
// queueing delay (0 when the bank is free).
func (b *Banks) Access(line mem.Addr, now uint64) (delay uint64) {
	bank := int(line/mem.LineSize) % len(b.nextFree)
	start := now
	if b.nextFree[bank] > start {
		delay = b.nextFree[bank] - start
		start = b.nextFree[bank]
		b.Conflicts++
	}
	b.nextFree[bank] = start + b.occupancy
	return delay
}
