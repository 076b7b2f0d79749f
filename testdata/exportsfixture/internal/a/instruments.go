package a

import "fix/internal/obsv"

// One instrument per kind of reader, and two without one.
var (
	mByName   = obsv.GetCounter("a.by_name")   // cmd/b quotes the name
	mByTest   = obsv.GetGauge("a.by_test")     // a's own test reads the var
	mByGolden = obsv.GetCounter("a.by_golden") // a golden prints the name
	mUnread   = obsv.GetCounter("a.unread")    // the golden prints a.unread_total only
	mElsewise = obsv.GetCounter("a.elsewise")  // only o's test has a var of that name
)
