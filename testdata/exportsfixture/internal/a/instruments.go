package a

import "fix/internal/obsv"

// One instrument per kind of reader, and three without one.
var counts struct {
	ByName    obsv.Counter `obsv:"a.by_name"`     // cmd/b quotes the name
	ByTest    obsv.Gauge   `obsv:"a.by_test"`     // a's own test selects the field
	ByGolden  obsv.Counter `obsv:"a.by_golden"`   // a golden prints the name
	Unread    obsv.Counter `obsv:"a.unread"`      // the golden prints a.unread_total only
	Elsewise  obsv.Counter `obsv:"a.elsewise"`    // only o's test selects a field of that name
	InOwnCode obsv.Counter `obsv:"a.in_own_code"` // only a's own program reads it
}

func ownCount() int64 { return counts.InOwnCode.Value() }

// Set is an instrument set that a program of another package reads by
// its field.
type Set struct {
	ByField obsv.Counter `obsv:"a.by_field"`
}
