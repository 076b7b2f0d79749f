package o

var mElsewise = 1
