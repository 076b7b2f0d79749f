// Package obsv stands in for the repository's instrument package.
package obsv

type Counter struct{ n int64 }

func (c *Counter) Value() int64 { return c.n }

type Gauge struct{ n int64 }
