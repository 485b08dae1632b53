package mip

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRow pins one serial solve: the answer bit for bit, and the work it
// took in both deterministic units.
type goldenRow struct {
	Trial       int    `json:"trial"`
	Status      string `json:"status"`
	ObjBits     string `json:"obj_bits"` // math.Float64bits, hex
	Nodes       int    `json:"nodes"`
	WarmStarted int    `json:"warm_started"`
	LPPivots    int    `json:"lp_pivots"`
}

// TestRandomGolden pins the reference solver's answer beside the instance:
// the serial search on the seeded random programs of the serial ≡ parallel
// suite must reproduce the recorded objective bits, node count, warm-start
// count and LP pivot count. A change to package lp or mip that claims to
// keep the pivot sequence leaves testdata/random_golden.jsonl byte-identical;
// one that means to move it regenerates the file with
// `go test ./internal/mip -run Golden -update` and says so.
func TestRandomGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	var got bytes.Buffer // one JSON row a line, so a diff names the program
	for trial := 0; trial < 40; trial++ {
		s, _ := randomMIP(rng).Solve(Options{Workers: 1})
		row, err := json.Marshal(goldenRow{
			Trial:       trial,
			Status:      s.Status.String(),
			ObjBits:     fmt.Sprintf("%016x", math.Float64bits(s.Obj)),
			Nodes:       s.Nodes,
			WarmStarted: s.WarmStarted,
			LPPivots:    s.LPPivots,
		})
		if err != nil {
			t.Fatal(err)
		}
		got.Write(append(row, '\n'))
	}
	golden := filepath.Join("testdata", "random_golden.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("serial solves diverge from golden (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
