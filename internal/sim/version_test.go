package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"sara/internal/sim"
	"sara/internal/workloads"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/result_digests.json")

const resultDigestsPath = "testdata/result_digests.json"

// resultDigests pins what sarad's result memo would serve: the SHA-256 of the
// plain JSON encoding of each workload's Result, which leaves out the engine
// name (the memo's record, a sim.ResultJSON, is derived from it), and the
// sim.Version they were recorded at.
type resultDigests struct {
	Version int               `json:"version"`
	Digests map[string]string `json:"digests"`
}

// TestResultDigests is the memo's staleness guard. Every registered workload
// at the daemon's defaults (par 16, scale 16, placed) runs on the event
// engine — dense ≡ event makes one engine enough — and the digest
// of its Result must match the record. A Result that moves while sim.Version
// stands still would leave every persisted record silently stale. Re-record
// on purpose with `go test ./internal/sim -run ResultDigests -update`.
func TestResultDigests(t *testing.T) {
	got := resultDigests{Version: sim.Version, Digests: map[string]string{}}
	for _, name := range workloads.Names() {
		r, err := sim.CycleEngine(compilePlaced(t, name, 16, 16), 0, sim.EngineEvent)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("%s: encoding the Result: %v", name, err)
		}
		sum := sha256.Sum256(data)
		got.Digests[name] = hex.EncodeToString(sum[:])
	}
	if *updateDigests {
		data, err := json.MarshalIndent(&got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(resultDigestsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(resultDigestsPath)
	if err != nil {
		t.Fatalf("reading the record (regenerate with -update): %v", err)
	}
	var want resultDigests
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", resultDigestsPath, err)
	}
	if want.Version != sim.Version {
		t.Fatalf("sim.Version is %d, %s was recorded at %d — re-record with -update", sim.Version, resultDigestsPath, want.Version)
	}
	for _, name := range workloads.Names() {
		if got.Digests[name] != want.Digests[name] {
			t.Errorf("%s: results changed at sim.Version %d — bump it and re-record (-update)\n got %s\nwant %s",
				name, sim.Version, got.Digests[name], want.Digests[name])
		}
	}
	if len(want.Digests) != len(got.Digests) {
		t.Errorf("record holds %d workloads, the registry %d — re-record with -update", len(want.Digests), len(got.Digests))
	}
}
