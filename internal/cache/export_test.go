package cache

// Flush evicts every line, returning the addresses of dirty lines in
// deterministic order (by set, most recently used first); the
// statistics are kept.
func (c *Cache) Flush() []uint64 {
	var dirty []uint64
	for ci, chunk := range c.chunks {
		for i, w := range chunk {
			if w&dirtyBit != 0 {
				dirty = append(dirty, c.victimAddr(ci<<chunkBits|i/c.cfg.Ways, w))
			}
		}
	}
	st := c.stats
	c.Reset()
	c.stats = st
	return dirty
}

// residentChunks counts the allocated chunks of the tag store.
func (c *Cache) residentChunks() int {
	n := 0
	for _, chunk := range c.chunks {
		if chunk != nil {
			n++
		}
	}
	return n
}
