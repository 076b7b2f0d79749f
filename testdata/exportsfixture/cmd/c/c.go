package main

import (
	"fmt"

	"fix/internal/o"
)

func main() { fmt.Println(o.Oracle()) }
