package other

import (
	"testing"

	"unusedfix/lib"
)

func TestOther(t *testing.T) {
	if lib.OtherTestUse() != 2 {
		t.Fatal("other")
	}
}
