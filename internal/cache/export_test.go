package cache

// Flush evicts every line, returning the addresses of dirty lines in
// deterministic order (by set, most recently used first).
func (c *Cache) Flush() []uint64 {
	var dirty []uint64
	for i, w := range c.lines {
		if w&dirtyBit != 0 {
			dirty = append(dirty, c.victimAddr(i/c.cfg.Ways, w))
		}
	}
	clear(c.lines)
	return dirty
}
