package lib

import "testing"

func TestOwn(t *testing.T) {
	if OwnTestOnly() != 1 || Limit != 3 {
		t.Fatal("lib")
	}
}
