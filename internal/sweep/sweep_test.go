package sweep

import (
	"fmt"
	"testing"
)

// TestForEachIndexedLowestError pins the sweep pool's error contract: the failure
// with the lowest index wins, matching what a sequential loop would report.
func TestForEachIndexedLowestError(t *testing.T) {
	err := ForEachIndexed(64, 0, func(i int) error {
		if i%7 == 3 {
			return errAt(i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail at 3" {
		t.Errorf("err = %v, want fail at 3", err)
	}
	if err := ForEachIndexed(16, 0, func(int) error { return nil }); err != nil {
		t.Errorf("err = %v, want nil", err)
	}
}

func errAt(i int) error { return fmt.Errorf("fail at %d", i) }
