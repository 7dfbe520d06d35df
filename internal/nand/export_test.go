package nand

// AllocateAllPages gives every block its page array, as New did before page
// state became lazy, so tests can measure what laziness saves.
func AllocateAllPages(a *Array) {
	for _, c := range a.chips {
		for b := range c.blocks {
			c.blocks[b].pages = make([]pageState, a.geo.PagesPerBlock)
		}
	}
}
