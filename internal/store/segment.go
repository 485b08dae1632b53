package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The disk tier is a set of append-only segment files, <dir>/seg-<n>. Each
// Store appends to a segment of its own, created with O_EXCL on its first
// write, so no two Stores — in one process or in several — ever write the
// same file. A segment is a sequence of frames, one per record:
//
//	magic    uint32  recordMagic, or tombMagic for a tombstone
//	stage    uint16  length of the stage name
//	key      uint16  length of the key
//	payload  uint32  length of the payload (0 for a tombstone)
//	crc      uint32  CRC-32C of the three lengths, the stage, key and payload
//	the stage, key and payload bytes
//
// with every integer little-endian. Open reads each segment's frame headers,
// oldest segment first; the last frame for a (stage, key) wins, a record
// indexing it and a tombstone unindexing it. A frame that runs past the end
// of its file or whose header is bad ends that segment's scan (a torn tail,
// left by a crash mid-write); the frames before it stay indexed. Payload
// CRCs are checked on Get, and a record that fails is tombstoned, so no
// later Open reads it. Nothing is compacted: records are content-addressed,
// so a key is written again only when its record was corrupt.
const (
	segPrefix   = "seg-"
	recordMagic = 0x31525353 // "SSR1"
	tombMagic   = 0x31545353 // "SST1"
	frameHeader = 16
	// scanWindow is how much of a segment one read of Open's scan takes in:
	// the headers of small frames share a read, and a payload longer than
	// the window is skipped without being read.
	scanWindow = 64 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segment is one log file. f is opened on the first Get that reads from the
// segment (at creation for the Store's own) and stays open until Close.
type segment struct {
	n    int // the number in its name: Open reads segments in this order
	path string
	f    *os.File
	size int64 // bytes appended by this Store (its own segment only)
}

// loc is where an indexed record's frame starts, and its payload length.
type loc struct {
	seg *segment
	off int64
	n   int
}

// appendFrame appends the frame of one record (or tombstone) to b.
func appendFrame(b []byte, magic uint32, stage, key string, payload []byte) []byte {
	start := len(b)
	b = binary.LittleEndian.AppendUint32(b, magic)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(stage)))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(key)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, 0, 0, 0, 0)
	b = append(b, stage...)
	b = append(b, key...)
	b = append(b, payload...)
	binary.LittleEndian.PutUint32(b[start+12:], frameCRC(b[start:]))
	return b
}

// frameCRC is the checksum a whole frame's header carries.
func frameCRC(frame []byte) uint32 {
	c := crc32.Update(0, castagnoli, frame[4:12])
	return crc32.Update(c, castagnoli, frame[frameHeader:])
}

// listSegments returns dir's segments, oldest first, and the number a new
// segment tries first.
func listSegments(dir string) ([]*segment, int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	var segs []*segment
	next := 1
	for _, e := range entries {
		num, ok := strings.CutPrefix(e.Name(), segPrefix)
		n, err := strconv.Atoi(num)
		if !ok || err != nil || e.IsDir() {
			continue
		}
		segs = append(segs, &segment{n: n, path: filepath.Join(dir, e.Name())})
		next = max(next, n+1)
	}
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].n < segs[j].n })
	return segs, next, nil
}

// scan indexes seg's frames. Caller holds s.mu.
func (s *Store) scan(seg *segment) {
	f, err := os.Open(seg.path)
	if err != nil {
		return
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return
	}
	w := window{f: f, size: info.Size()}
	for off := int64(0); ; {
		fr := w.at(off, frameHeader)
		if fr == nil {
			return
		}
		magic := binary.LittleEndian.Uint32(fr)
		ls, lk := int(binary.LittleEndian.Uint16(fr[4:])), int(binary.LittleEndian.Uint16(fr[6:]))
		n := binary.LittleEndian.Uint32(fr[8:])
		end := off + int64(frameHeader+ls+lk) + int64(n)
		if magic != recordMagic && (magic != tombMagic || n != 0) || end > w.size {
			return
		}
		if fr = w.at(off, frameHeader+ls+lk); fr == nil {
			return
		}
		stage, key := string(fr[frameHeader:frameHeader+ls]), string(fr[frameHeader+ls:])
		if magic == tombMagic {
			if frameCRC(fr) != binary.LittleEndian.Uint32(fr[12:]) {
				return
			}
			s.unindex(stage, key)
		} else {
			s.index(stage, key, loc{seg, off, int(n)})
		}
		off = end
	}
}

// window serves scan's reads from one buffer, refilled as the scan passes it.
type window struct {
	f    *os.File
	size int64
	base int64
	buf  []byte
}

// at returns the n bytes at off, or nil when they are not all in the file.
func (w *window) at(off int64, n int) []byte {
	if off+int64(n) > w.size {
		return nil
	}
	if off < w.base || off+int64(n) > w.base+int64(len(w.buf)) {
		m := int(min(int64(max(n, scanWindow)), w.size-off))
		if cap(w.buf) < m {
			w.buf = make([]byte, m)
		}
		w.buf, w.base = w.buf[:m], off
		if _, err := w.f.ReadAt(w.buf, off); err != nil {
			w.buf = w.buf[:0]
			return nil
		}
	}
	return w.buf[off-w.base : off-w.base+int64(n)]
}

// index makes l the record of (stage, key). Caller holds s.mu.
func (s *Store) index(stage, key string, l loc) {
	s.unindex(stage, key)
	keys := s.idx[stage]
	if keys == nil {
		keys = map[string]loc{}
		s.idx[stage] = keys
	}
	keys[key] = l
	s.diskEntries++
	s.diskBytes += int64(l.n)
}

// unindex drops (stage, key) from the index. Caller holds s.mu.
func (s *Store) unindex(stage, key string) {
	if l, ok := s.idx[stage][key]; ok {
		delete(s.idx[stage], key)
		s.diskEntries--
		s.diskBytes -= int64(l.n)
	}
}

// read returns the payload of the record of (stage, key) at l, and false
// when its frame is not intact. Caller holds s.mu.
func (s *Store) read(stage, key string, l loc) ([]byte, bool) {
	if l.seg.f == nil {
		f, err := os.Open(l.seg.path)
		if err != nil {
			return nil, false
		}
		l.seg.f = f
	}
	body := frameHeader + len(stage) + len(key)
	fr := make([]byte, body+l.n)
	if _, err := l.seg.f.ReadAt(fr, l.off); err != nil {
		return nil, false
	}
	ok := binary.LittleEndian.Uint32(fr) == recordMagic &&
		binary.LittleEndian.Uint32(fr[12:]) == frameCRC(fr) &&
		string(fr[frameHeader:frameHeader+len(stage)]) == stage &&
		string(fr[frameHeader+len(stage):body]) == key
	return fr[body:], ok
}

// write appends one frame to the Store's own segment, creating it on the
// first write, and returns where the frame landed. A failed write turns the
// disk tier's writes off for good: the frame may be half there, and a frame
// after it would sit behind a torn tail. Caller holds s.mu.
func (s *Store) write(magic uint32, stage, key string, payload []byte) (loc, bool) {
	if s.noWrite || len(stage) > math.MaxUint16 || len(key) > math.MaxUint16 || int64(len(payload)) > math.MaxUint32 {
		return loc{}, false
	}
	if s.own == nil {
		if s.own = s.create(); s.own == nil {
			s.noWrite = true
			return loc{}, false
		}
		s.segs = append(s.segs, s.own)
	}
	s.frame = appendFrame(s.frame[:0], magic, stage, key, payload)
	if _, err := s.own.f.Write(s.frame); err != nil {
		s.noWrite = true
		return loc{}, false
	}
	l := loc{s.own, s.own.size, len(payload)}
	s.own.size += int64(len(s.frame))
	return l, true
}

// create makes a new segment for this Store's writes, numbered past every
// segment it has seen; O_EXCL makes it this Store's alone.
func (s *Store) create() *segment {
	for ; ; s.next++ {
		path := filepath.Join(s.dir, fmt.Sprintf("%s%08d", segPrefix, s.next))
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return nil
		}
		return &segment{n: s.next, path: path, f: f}
	}
}
