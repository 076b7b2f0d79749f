package main

import (
	"fmt"

	"fix/internal/a"
)

type worker interface{ Work() }

func main() {
	t := a.New()
	var w worker = t
	w.Work()
	t.Shown()
	fmt.Println(a.Live(), a.LiveConst, a.LiveVar, t.Live(), t, a.Config{Set: 1}, a.ModeLive)
}
