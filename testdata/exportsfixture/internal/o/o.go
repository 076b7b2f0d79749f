// Package o is the fixture's test-only package, which cmd/c imports all
// the same.
package o

func Oracle() int { return 1 }
