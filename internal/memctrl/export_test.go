package memctrl

// PowerStateOf reports the controller's view of a rank's power state.
func (c *Controller) PowerStateOf(channel, rank int) PowerState {
	if !c.ps.armed {
		return PSAwake
	}
	return c.ps.ranks[channel<<c.rankShift|rank].state
}
