package ewma

// Controller introspection that only the suites need.

// Observations returns the number of sizes observed.
func (c *Controller) Observations() int { return c.i }

// Reset clears the controller state.
func (c *Controller) Reset() {
	c.v = 0
	c.i = 0
}
