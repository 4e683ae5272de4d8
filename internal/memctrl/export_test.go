package memctrl

// PowerStateOf reports a rank's power state.
func (c *Controller) PowerStateOf(channel, rank int) PowerState {
	return c.module.RankState(channel<<c.rankShift | rank)
}
