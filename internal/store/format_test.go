package store_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"sara/internal/core"
	"sara/internal/partition"
	"sara/internal/store"
	"sara/internal/workloads"
)

var updateFormat = flag.Bool("update", false, "rewrite testdata/format_digests.json")

const formatDigestsPath = "testdata/format_digests.json"

// formatDigests pins the store's byte format: the SHA-256 of every encoding
// it writes, for every registered workload, and the FormatVersion they were
// recorded at.
type formatDigests struct {
	FormatVersion int                          `json:"format_version"`
	Solver        string                       `json:"solver"`
	Workloads     map[string]map[string]string `json:"workloads"`
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// formatSolverRecord is the solver record of one fixed partition.Result, as
// StoreResult writes it to disk and a fresh Open reads it back.
func formatSolverRecord(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.StoreResult("golden", &partition.Result{
		Assign: []int{0, 2, 1, -1, 1 << 40}, NumParts: 3, RetimeUnits: 2,
		Cost: -3.25, Algo: "solver", MIPNodes: 17,
	})
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := s2.Get(store.SolverStage, "golden")
	if !ok {
		t.Fatal("the solver record did not survive a reopen")
	}
	return b
}

// TestFormatDigests is the store format's staleness guard. Each workload at
// par 4, scale 16 gives its program digests (with and without Par), the
// snapshot of its final state placed and unplaced, and its artifact with the
// wall-clock phase times left out; the digest of each must match the record,
// as must that of one solver record. Bytes that move while FormatVersion
// stands still would leave every content address and every file on disk
// silently stale. Re-record on purpose with
// `go test ./internal/store -run FormatDigests -update`.
func TestFormatDigests(t *testing.T) {
	got := formatDigests{
		FormatVersion: store.FormatVersion,
		Solver:        digest(formatSolverRecord(t)),
		Workloads:     map[string]map[string]string{},
	}
	for _, name := range workloads.Names() {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog := w.Build(workloads.Params{Par: 4, Scale: 16})
		d := map[string]string{
			"program":          store.ProgramDigest(prog, true),
			"program_par_free": store.ProgramDigest(prog, false),
		}
		for _, skipPlace := range []bool{false, true} {
			cfg := core.DefaultConfig()
			cfg.SkipPlace = skipPlace
			c, err := core.Compile(prog, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			a := c.Artifact()
			if skipPlace {
				d["snapshot_unplaced"] = digest(store.EncodeSnapshot(a.State))
				continue
			}
			d["snapshot_placed"] = digest(store.EncodeSnapshot(a.State))
			a.PhaseTimes = nil
			d["artifact"] = digest(store.EncodeArtifact(a))
		}
		got.Workloads[name] = d
	}
	if *updateFormat {
		data, err := json.MarshalIndent(&got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(formatDigestsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(formatDigestsPath)
	if err != nil {
		t.Fatalf("reading the record (regenerate with -update): %v", err)
	}
	var want formatDigests
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", formatDigestsPath, err)
	}
	if want.FormatVersion != store.FormatVersion {
		t.Fatalf("FormatVersion is %d, %s was recorded at %d — re-record with -update",
			store.FormatVersion, formatDigestsPath, want.FormatVersion)
	}
	if got.Solver != want.Solver {
		t.Errorf("solver record changed at FormatVersion %d\n got %s\nwant %s", store.FormatVersion, got.Solver, want.Solver)
	}
	for _, name := range workloads.Names() {
		for kind, sum := range got.Workloads[name] {
			if sum != want.Workloads[name][kind] {
				t.Errorf("%s %s: encoding changed at FormatVersion %d — bump it and re-record (-update)\n got %s\nwant %s",
					name, kind, store.FormatVersion, sum, want.Workloads[name][kind])
			}
		}
	}
	if len(want.Workloads) != len(got.Workloads) {
		t.Errorf("record holds %d workloads, the registry %d — re-record with -update", len(want.Workloads), len(got.Workloads))
	}
}
