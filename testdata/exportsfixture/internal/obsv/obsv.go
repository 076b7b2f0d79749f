// Package obsv stands in for the repository's instrument registry.
package obsv

type Counter struct{ n int64 }

func GetCounter(name string) *Counter { return &Counter{} }

func GetGauge(name string) *Counter { return &Counter{} }
