package lib

import (
	"io"
	"testing"
)

func TestOwn(t *testing.T) {
	if OwnTestOnly() != 1 || Limit != 3 {
		t.Fatal("lib")
	}
	var c io.Closer = TestConn{}
	var m Meter
	m.Add(1)
	if c.Close() != nil || m.seen != 1 {
		t.Fatal("lib")
	}
}
