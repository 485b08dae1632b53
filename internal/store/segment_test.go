package store_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sara/internal/store"
)

// mustOpen opens dir and closes the store when the test ends.
func mustOpen(t testing.TB, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// segments returns dir's segment files, oldest first.
func segments(t testing.TB, dir string) []string {
	t.Helper()
	paths, err := store.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// segmentBytes is the size of every segment in dir together.
func segmentBytes(t testing.TB, dir string) int64 {
	t.Helper()
	var n int64
	for _, path := range segments(t, dir) {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// TestTornTailKeepsEarlierRecords: a segment cut mid-record keeps every
// record before the cut, and the next Put appends where a reopen reads it.
func TestTornTailKeepsEarlierRecords(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	for _, k := range []string{"a", "b", "c"} {
		s.Put(store.SimStage, k, []byte("payload "+k))
	}
	s.Close()
	segs := segments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("one store wrote %d segments", len(segs))
	}
	if err := os.Truncate(segs[0], segmentBytes(t, dir)-3); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	for _, k := range []string{"a", "b"} {
		if b, ok := s2.Get(store.SimStage, k); !ok || string(b) != "payload "+k {
			t.Errorf("record %s before the torn tail: %q, %v", k, b, ok)
		}
	}
	if s2.Probe(store.SimStage, "c") {
		t.Error("the torn record is indexed")
	}
	s2.Put(store.SimStage, "d", []byte("payload d"))
	s3 := mustOpen(t, dir)
	if got := s3.ListKeys(store.SimStage); strings.Join(got, ",") != "a,b,d" {
		t.Errorf("after the torn tail and one Put a reopen lists %v, want a, b and d", got)
	}
	if b, ok := s3.Get(store.SimStage, "d"); !ok || string(b) != "payload d" {
		t.Errorf("the record after the torn tail: %q, %v", b, ok)
	}
}

// TestFlippedPayloadByteIsTombstoned: a record whose payload no longer
// matches its CRC is a miss, and the tombstone it leaves keeps every later
// Open from reading it.
func TestFlippedPayloadByteIsTombstoned(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.Put(store.SimStage, "keep", []byte("intact"))
	s.Put(store.SimStage, "flip", []byte("flipped"))
	s.Close()
	seg := segments(t, dir)[0]
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0x20 // the last byte of the last record's payload
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	if got, ok := s2.Get(store.SimStage, "flip"); ok {
		t.Fatalf("a record that fails its CRC answered %q", got)
	}
	if st := s2.Stats(); st.DiskEntries != 1 || st.DiskBytes != int64(len("intact")) {
		t.Errorf("after the miss: %d entries, %d bytes", st.DiskEntries, st.DiskBytes)
	}
	s3 := mustOpen(t, dir)
	if s3.Probe(store.SimStage, "flip") {
		t.Error("a reopen indexes the record the tombstone dropped")
	}
	if got, ok := s3.Get(store.SimStage, "keep"); !ok || string(got) != "intact" {
		t.Errorf("the intact record: %q, %v", got, ok)
	}
}

// TestOldLayoutRefused: a directory of one file per record, at this very
// FormatVersion, refuses to open with the delete-the-directory message.
func TestOldLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, store.SimStage), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, store.SimStage, "k.bin"), []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := fmt.Sprintf("sara-store-format %d\n", store.FormatVersion)
	if err := os.WriteFile(filepath.Join(dir, "VERSION"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := store.Open(dir)
	if err == nil {
		t.Fatal("Open accepted a directory in the one-file-per-record layout")
	}
	if !strings.Contains(err.Error(), "format") || !strings.Contains(err.Error(), "delete") {
		t.Errorf("error is not actionable about the layout: %v", err)
	}
}

// TestStoresShareADirectory: two Stores open on one directory write their
// own segments, and each sees the other's records after a reopen.
func TestStoresShareADirectory(t *testing.T) {
	dir := t.TempDir()
	a, b := mustOpen(t, dir), mustOpen(t, dir)
	a.Put(store.SimStage, "a", []byte("from a"))
	b.Put(store.SimStage, "b", []byte("from b"))
	if n := len(segments(t, dir)); n != 2 {
		t.Fatalf("two stores wrote %d segments, want 2", n)
	}
	a.Close()
	b.Close()
	for _, s := range []*store.Store{mustOpen(t, dir), mustOpen(t, dir)} {
		for _, k := range []string{"a", "b"} {
			if got, ok := s.Get(store.SimStage, k); !ok || string(got) != "from "+k {
				t.Errorf("record %s after a reopen: %q, %v", k, got, ok)
			}
		}
	}
}

// TestIdenticalPutWritesNothing: a Put of the bytes a key already holds
// writes 0 bytes, whether the key was Put by this store or indexed at Open.
func TestIdenticalPutWritesNothing(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.Put(store.SimStage, "k", []byte("payload"))
	size := segmentBytes(t, dir)
	s.Put(store.SimStage, "k", []byte("payload"))
	mustOpen(t, dir).Put(store.SimStage, "k", []byte("payload"))
	if n := len(segments(t, dir)); n != 1 {
		t.Errorf("%d segments after identical Puts, want 1", n)
	}
	if got := segmentBytes(t, dir); got != size {
		t.Errorf("identical Puts wrote %d bytes", got-size)
	}
}

// TestPutCreatesAtMostOneFile: 1 000 Puts into an open store add one file to
// its directory, the store's segment.
func TestPutCreatesAtMostOneFile(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		s.Put(store.FinalStage, fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	after, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) > len(before)+1 {
		t.Errorf("1 000 Puts took the directory from %d entries to %d", len(before), len(after))
	}
	if st := s.Stats(); st.DiskEntries != 1000 {
		t.Errorf("%d disk entries after 1 000 Puts", st.DiskEntries)
	}
}

// TestIndexAnswersWithoutTheDisk: Probe, ListKeys and Stats read the index
// Open built; they answer the same with the directory gone.
func TestIndexAnswersWithoutTheDisk(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir).Put(store.SimStage, "k", []byte("payload"))
	s := mustOpen(t, dir)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if !s.Probe(store.SimStage, "k") {
		t.Error("Probe misses an indexed record")
	}
	if got := s.ListKeys(store.SimStage); len(got) != 1 || got[0] != "k" {
		t.Errorf("ListKeys: %v", got)
	}
	if st := s.Stats(); st.DiskEntries != 1 || st.DiskBytes != int64(len("payload")) {
		t.Errorf("Stats: %d entries, %d bytes", st.DiskEntries, st.DiskBytes)
	}
}

// TestCloseReleasesFiles: opening, reading, writing and closing 1 000 stores
// on one directory leaves the process's open files where they were.
func TestCloseReleasesFiles(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts /proc/self/fd")
	}
	openFiles := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	dir := t.TempDir()
	before := openFiles()
	for i := 0; i < 1000; i++ {
		s, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if _, ok := s.Get(store.SimStage, fmt.Sprint(i-1)); !ok {
				t.Fatalf("store %d misses the record store %d wrote", i, i-1)
			}
		}
		s.Put(store.SimStage, fmt.Sprint(i), []byte("payload"))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if after := openFiles(); after > before {
		t.Errorf("1 000 stores opened and closed took the open files from %d to %d", before, after)
	}
	if n := len(segments(t, dir)); n != 1000 {
		t.Errorf("%d segments, want one per store", n)
	}
}

// TestClosedStoreKeepsPutsInMemory: after Close the store answers from
// memory, and a Put there reaches no segment.
func TestClosedStoreKeepsPutsInMemory(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.Close()
	s.Put(store.SimStage, "k", []byte("payload"))
	if got, ok := s.Get(store.SimStage, "k"); !ok || !bytes.Equal(got, []byte("payload")) {
		t.Errorf("Get after Close: %q, %v", got, ok)
	}
	if n := len(segments(t, dir)); n != 0 {
		t.Errorf("a Put after Close wrote %d segments", n)
	}
}

// TestConcurrentUse: goroutines that Put, Get, Probe, list and count through
// one store, while their records are evicted from memory and read back from
// its segment, leave every record readable after a reopen.
func TestConcurrentUse(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	const workers, each = 4, 400 // 1 600 records: past the memory tier's cap
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				s.Put(store.SimStage, key, []byte(key))
				if got, ok := s.Get(store.SimStage, fmt.Sprintf("w%d-%d", w, i/2)); !ok || string(got) != fmt.Sprintf("w%d-%d", w, i/2) {
					t.Errorf("Get of an earlier record: %q, %v", got, ok)
				}
				s.Probe(store.SimStage, key)
				if i%100 == 0 {
					s.ListKeys(store.SimStage)
					s.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	s.Close()
	r := mustOpen(t, dir)
	if n := len(r.ListKeys(store.SimStage)); n != workers*each {
		t.Fatalf("a reopen lists %d records, want %d", n, workers*each)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < each; i++ {
			key := fmt.Sprintf("w%d-%d", w, i)
			if got, ok := r.Get(store.SimStage, key); !ok || string(got) != key {
				t.Fatalf("record %s after a reopen: %q, %v", key, got, ok)
			}
		}
	}
}

// BenchmarkStore times the disk tier on records of ./bench's serving sizes
// (1.8 KB is serve-hot's mean record, 7.4 KB serve-sweep's): 300 Puts into a
// fresh directory, then a reopen and a Get of every record from disk.
func BenchmarkStore(b *testing.B) {
	for _, size := range []int{1800, 7400} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			payload := bytes.Repeat([]byte{0xa5}, size)
			keys := make([]string, 300)
			for i := range keys {
				keys[i] = fmt.Sprintf("%064x", i)
			}
			root := b.TempDir()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dir, err := os.MkdirTemp(root, "")
				if err != nil {
					b.Fatal(err)
				}
				w, err := store.Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				for _, k := range keys {
					w.Put(store.FinalStage, k, payload)
				}
				r, err := store.Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				for _, k := range keys {
					if _, ok := r.Get(store.FinalStage, k); !ok {
						b.Fatalf("record %s not read back", k)
					}
				}
				w.Close()
				r.Close()
			}
		})
	}
}
