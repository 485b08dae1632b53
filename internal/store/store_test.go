package store_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sara/internal/core"
	"sara/internal/partition"
	"sara/internal/sim"
	"sara/internal/store"
	"sara/internal/workloads"
)

func compileWorkload(t *testing.T, name string, par int, skipPlace bool) *core.Compiled {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.SkipPlace = skipPlace
	c, err := core.Compile(w.Build(workloads.Params{Par: par, Scale: 64}), cfg)
	if err != nil {
		t.Fatalf("Compile %s: %v", name, err)
	}
	return c
}

// TestSnapshotRoundTrip is the codec property test: for several workloads
// and par factors, encode → decode → re-encode must reproduce the exact
// bytes, proving the decoder recovers every field (including adjacency-list
// order and nil-vs-empty distinctions) the encoder wrote.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, name := range []string{"bs", "rf", "kmeans", "pr", "lstm"} {
		for _, par := range []int{1, 4, 16} {
			c := compileWorkload(t, name, par, par == 4) // mix placed and unplaced
			enc := store.EncodeSnapshot(c.Artifact().State)
			dec, err := store.DecodeSnapshot(enc, c.Prog)
			if err != nil {
				t.Fatalf("%s par=%d: decode: %v", name, par, err)
			}
			re := store.EncodeSnapshot(dec)
			if !bytes.Equal(enc, re) {
				t.Fatalf("%s par=%d: snapshot does not round-trip bit-identically", name, par)
			}
			if dec.Lowered.G.Prog != c.Prog {
				t.Fatalf("%s par=%d: decoded graph not reattached to the request program", name, par)
			}
		}
	}
}

// TestArtifactRoundTripSimulates pins the design-store headline property:
// a compiled design serializes to bytes and back into something a fresh
// process can simulate — compile → encode → decode → sim.Cycle, with
// bit-identical execution to the original.
func TestArtifactRoundTripSimulates(t *testing.T) {
	c := compileWorkload(t, "ms", 4, false)
	enc := store.EncodeArtifact(c.Artifact())
	dec, err := store.DecodeArtifact(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(enc, store.EncodeArtifact(dec)) {
		t.Fatal("artifact does not round-trip bit-identically")
	}
	// The decoded program must hash to the same content address as the
	// original, or the warmed cache would never be hit.
	for _, par := range []bool{true, false} {
		if store.ProgramDigest(dec.Prog, par) != store.ProgramDigest(c.Prog, par) {
			t.Fatalf("decoded program digest (includePar=%v) differs from original", par)
		}
	}
	orig, err := sim.Cycle(c.Design(), 30_000_000)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := sim.Cycle(&sim.Design{
		G:         dec.State.Lowered.G,
		Spec:      dec.Spec,
		Merge:     dec.State.Merged,
		Placement: dec.State.Placement,
	}, 30_000_000)
	if err != nil {
		t.Fatalf("simulating decoded artifact: %v", err)
	}
	if orig.Cycles != replay.Cycles || orig.FiredTotal != replay.FiredTotal {
		t.Errorf("replayed artifact diverges: %d cycles / %d fired vs %d / %d",
			replay.Cycles, replay.FiredTotal, orig.Cycles, orig.FiredTotal)
	}
	if len(dec.PhaseTimes) != len(c.PhaseTimes) {
		t.Errorf("phase times lost: %d vs %d entries", len(dec.PhaseTimes), len(c.PhaseTimes))
	}
}

// TestDecodeRejectsGarbage: corrupt bytes must error, never panic or decode
// to a half-formed design.
func TestDecodeRejectsGarbage(t *testing.T) {
	c := compileWorkload(t, "bs", 4, true)
	if _, err := store.DecodeSnapshot([]byte("not a snapshot"), c.Prog); err == nil {
		t.Error("DecodeSnapshot accepted garbage")
	}
	if _, err := store.DecodeArtifact([]byte("not an artifact")); err == nil {
		t.Error("DecodeArtifact accepted garbage")
	}
	enc := store.EncodeSnapshot(c.Artifact().State)
	if _, err := store.DecodeSnapshot(enc[:len(enc)/2], c.Prog); err == nil {
		t.Error("DecodeSnapshot accepted a truncated snapshot")
	}
	if _, err := store.DecodeSnapshot(append(append([]byte(nil), enc...), 0xFF), c.Prog); err == nil {
		t.Error("DecodeSnapshot accepted trailing bytes")
	}
}

// TestOpenVersionMismatchFailsLoudly: a store directory written by a
// different format version must refuse to open with an actionable error.
func TestOpenVersionMismatchFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	if _, err := store.Open(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "VERSION"), []byte("sara-store-format 9999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := store.Open(dir)
	if err == nil {
		t.Fatal("Open accepted a store written by a different format version")
	}
	if !strings.Contains(err.Error(), "format") || !strings.Contains(err.Error(), "delete") {
		t.Errorf("error is not actionable about the format mismatch: %v", err)
	}
}

// TestOpenUnwritableDirErrors: the caller-visible failure that sarad's
// graceful fallback keys on.
func TestOpenUnwritableDirErrors(t *testing.T) {
	f := filepath.Join(t.TempDir(), "plainfile")
	if err := os.WriteFile(f, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(filepath.Join(f, "store")); err == nil {
		t.Fatal("Open succeeded under a regular file")
	}
}

// TestStoreCountersAndPersistence exercises Get/Put/Probe accounting and the
// disk tier surviving a reopen.
func TestStoreCountersAndPersistence(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("lower", "k1"); ok {
		t.Fatal("empty store returned a hit")
	}
	s.Put("lower", "k1", []byte("payload"))
	if b, ok := s.Get("lower", "k1"); !ok || string(b) != "payload" {
		t.Fatalf("Get after Put: %q, %v", b, ok)
	}
	if !s.Probe("lower", "k1") || s.Probe("lower", "k2") {
		t.Fatal("Probe disagrees with contents")
	}
	st := s.Stats().Stages["lower"]
	if st.Hits != 2 || st.Misses != 2 || st.BytesWritten != int64(len("payload")) {
		t.Errorf("counters: %+v", st)
	}

	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := s2.Get("lower", "k1"); !ok || string(b) != "payload" {
		t.Fatal("entry did not survive reopen")
	}
	if got := s2.ListKeys("lower"); len(got) != 1 || got[0] != "k1" {
		t.Errorf("ListKeys after reopen: %v", got)
	}
}

// TestPutReplacesCorruptRecord: a record whose bytes differ from what Get
// read back is corrupt (same key, same bytes otherwise) and is replaced on
// disk with the footprint gauges kept exact; a Put of the same bytes still
// writes nothing.
func TestPutReplacesCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.Put(store.SimStage, "k", []byte("payload"))
	tear := mustOpen(t, dir)
	tear.Get(store.SimStage, "k")
	tear.Put(store.SimStage, "k", []byte("torn"))
	before := segmentBytes(t, dir)
	s.Put(store.SimStage, "k", []byte("payload")) // memory still holds the good bytes
	if after := segmentBytes(t, dir); after != before {
		t.Fatalf("an identical Put wrote %d bytes", after-before)
	}

	s2 := mustOpen(t, dir)
	if b, ok := s2.Get(store.SimStage, "k"); !ok || string(b) != "torn" {
		t.Fatalf("Get: %q, %v", b, ok)
	}
	s2.Put(store.SimStage, "k", []byte("payload"))
	if b, ok := mustOpen(t, dir).Get(store.SimStage, "k"); !ok || string(b) != "payload" {
		t.Errorf("corrupt record not replaced on disk: %q, %v", b, ok)
	}
	if b, ok := s2.Get(store.SimStage, "k"); !ok || string(b) != "payload" {
		t.Errorf("Get after replace: %q, %v", b, ok)
	}
	if st := s2.Stats(); st.DiskEntries != 1 || st.DiskBytes != int64(len("payload")) {
		t.Errorf("footprint after replace: %d entries, %d bytes", st.DiskEntries, st.DiskBytes)
	}
}

// TestSolverCacheRoundTrip: solver-instance results persist through the disk
// tier and come back equal, so a restarted process skips re-solving.
func TestSolverCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := &partition.Result{
		Assign:      []int{0, 0, 1, 2, 1},
		NumParts:    3,
		RetimeUnits: 2,
		Cost:        3.2,
		Algo:        "solver",
		MIPNodes:    17,
	}
	s.StoreResult("instkey", res)

	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.LookupResult("instkey")
	if !ok {
		t.Fatal("solver result did not survive reopen")
	}
	if got.NumParts != res.NumParts || got.Cost != res.Cost || got.RetimeUnits != res.RetimeUnits ||
		got.MIPNodes != res.MIPNodes || got.Algo != res.Algo {
		t.Errorf("round-tripped result differs: %+v vs %+v", got, res)
	}
	for i := range res.Assign {
		if got.Assign[i] != res.Assign[i] {
			t.Fatalf("Assign[%d] = %d, want %d", i, got.Assign[i], res.Assign[i])
		}
	}
	// Mutating the returned copy must not poison the cache.
	got.Assign[0] = 99
	again, _ := s2.LookupResult("instkey")
	if again.Assign[0] == 99 {
		t.Error("LookupResult returns aliased memory")
	}
}

// TestSolverCorruptRecordIsReplaced: a solver record on disk that does not
// decode — a negative count, or a truncated record — is a miss, never a
// panic; a fresh Open no longer answers it, and the next StoreResult writes a
// good one that a fresh process reads back.
func TestSolverCorruptRecordIsReplaced(t *testing.T) {
	res := &partition.Result{Assign: []int{0, 1, 1}, NumParts: 2, Cost: 1.5, Algo: "solver", MIPNodes: 3}
	negCount := binary.AppendVarint(binary.AppendVarint(nil, store.FormatVersion), -1)
	for name, corrupt := range map[string]func(good []byte) []byte{
		"negative count": func([]byte) []byte { return negCount },
		"truncated":      func(good []byte) []byte { return good[:len(good)-3] },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir)
			s.StoreResult("inst", res)
			good, ok := s.Get(store.SolverStage, "inst")
			if !ok {
				t.Fatal("the stored record is not answered")
			}
			tear := mustOpen(t, dir)
			if _, ok := tear.Get(store.SolverStage, "inst"); !ok {
				t.Fatal("the stored record is not answered after a reopen")
			}
			tear.Put(store.SolverStage, "inst", corrupt(good))

			s2 := mustOpen(t, dir)
			if got, ok := s2.LookupResult("inst"); ok {
				t.Fatalf("a corrupt record answered %+v", got)
			}
			if keys := mustOpen(t, dir).ListKeys(store.SolverStage); len(keys) != 0 {
				t.Fatalf("a fresh Open still answers the corrupt record: %v", keys)
			}
			if st := s2.Stats(); st.SolverMiss != 1 || st.SolverHits != 0 || st.DiskEntries != 0 {
				t.Errorf("after the refused load: %d misses, %d hits, %d disk entries", st.SolverMiss, st.SolverHits, st.DiskEntries)
			}
			s2.StoreResult("inst", res)
			if b, _ := mustOpen(t, dir).Get(store.SolverStage, "inst"); !bytes.Equal(b, good) {
				t.Fatalf("StoreResult wrote %x, want %x", b, good)
			}

			s3 := mustOpen(t, dir)
			got, ok := s3.LookupResult("inst")
			if !ok || got.NumParts != res.NumParts || len(got.Assign) != len(res.Assign) {
				t.Errorf("the rewritten record reads back as %+v, %v", got, ok)
			}
		})
	}
}

// TestLoadCheck: a stage's load check gates its disk reads. A record the
// check accepts is remembered and answered in the form the check returns; a
// record it refuses is tombstoned, read as a miss and written afresh by the
// next Put, with the footprint gauges kept exact. Cached answers the memory
// tier only and counts nothing for an absent entry.
func TestLoadCheck(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.Put(store.SimStage, "good", []byte(" ok "))
	s.Put(store.SimStage, "bad", []byte("bad"))
	trim := func(b []byte) ([]byte, error) {
		if !bytes.HasPrefix(bytes.TrimSpace(b), []byte("ok")) {
			return nil, os.ErrInvalid
		}
		return bytes.TrimSpace(b), nil
	}

	s2 := mustOpen(t, dir)
	s2.SetLoadCheck(store.SimStage, trim)
	if b, ok := s2.Cached(store.SimStage, "good"); ok {
		t.Fatalf("Cached read disk: %q", b)
	}
	if st := s2.Stats().Stages[store.SimStage]; st != (store.StageStats{}) {
		t.Errorf("an absent Cached entry counted %+v", st)
	}
	if b, ok := s2.Get(store.SimStage, "good"); !ok || string(b) != "ok" {
		t.Errorf("Get of an accepted record: %q, %v; want the check's form", b, ok)
	}
	if b, ok := s2.Cached(store.SimStage, "good"); !ok || string(b) != "ok" {
		t.Errorf("Cached after the load: %q, %v", b, ok)
	}
	if b, ok := s2.Get(store.SimStage, "bad"); ok {
		t.Errorf("Get of a refused record answered %q", b)
	}
	if keys := mustOpen(t, dir).ListKeys(store.SimStage); len(keys) != 1 || keys[0] != "good" {
		t.Errorf("a fresh Open lists %v, want only the accepted record", keys)
	}
	s2.Put(store.SimStage, "bad", []byte("ok again"))
	if b, _ := mustOpen(t, dir).Get(store.SimStage, "bad"); string(b) != "ok again" {
		t.Errorf("the refused record was not written again: %q", b)
	}
	if st := s2.Stats(); st.DiskEntries != 2 || st.DiskBytes != int64(len(" ok ")+len("ok again")) {
		t.Errorf("footprint: %d entries, %d bytes", st.DiskEntries, st.DiskBytes)
	}
	if st := s2.Stats().Stages[store.SimStage]; st.Hits != 2 || st.Misses != 1 {
		t.Errorf("sim stage counters %+v, want 2 hits and 1 miss", st)
	}
}
