// Command consumer is a main package: what it calls counts as used.
package main

import (
	"errors"
	"fmt"

	"unusedfix/lib"
)

func main() {
	var a lib.Areaer = lib.Shape{W: 2, H: 3}
	fmt.Println(lib.MainOnly(), a.Area(), lib.Shape{W: 1, H: 1})
	var err error = lib.Shape{}
	fmt.Println(errors.Is(err, err))
	var s lib.Stack[int]
	s.Push(1)

	fmt.Println(lib.ArgConn{}, lib.Outer{}, lib.Report{Count: 1})
	_, _ = lib.Open(), lib.Closers
	_ = lib.Handle{}
	_ = lib.TestConn{}
	var m lib.Meter
	m.Add(lib.Pairs(1))
}
