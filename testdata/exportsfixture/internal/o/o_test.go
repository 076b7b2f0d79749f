package o

var x struct{ Elsewise int }

var _ = x.Elsewise
