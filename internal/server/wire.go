package server

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"strconv"

	"sara/internal/store"
)

// This file is the one writer of a RunResponse: appendRunResponse produces
// exactly the bytes json.NewEncoder(buf).Encode(resp) would (minus the
// newline), field by field in declaration order, with strconv instead of
// reflection. What it cannot do by hand — a string that needs escaping, the
// profile report — it hands to encoding/json, so the two agree by
// construction; FuzzRunResponseJSON holds them to it.

// compileWire is a RunResponse's compile half, encoded: buf[:head] is
// `{"program":…,"arch":…,"cache_key":…`, buf[head:mid] the phase_ms,
// mip_nodes_explored and stage_cache members (each when non-empty) and
// buf[mid:] the resources member. The per-request members go between.
type compileWire struct {
	buf       []byte
	head, mid int
}

// encodeCompileHalf encodes r's compile half (see compileWire).
func encodeCompileHalf(r *RunResponse) (*compileWire, error) {
	w := &compileWire{}
	var err error
	b := appendHead(nil, r)
	w.head = len(b)
	if b, err = appendMid(b, r); err != nil {
		return nil, err
	}
	w.mid = len(b)
	w.buf = appendResources(b, &r.Resources)
	return w, nil
}

// appendRunResponse appends r's JSON object. The compile half is spliced
// from the bytes its design stored, or encoded in place for a response built
// by hand, so an error surfaces in member order as encoding/json's would; a
// Result that came through a record entry point (resultChecked) is spliced
// verbatim, any other is checked as it is encoded.
func appendRunResponse(b []byte, r *RunResponse) ([]byte, error) {
	var err error
	w := r.wire
	if w == nil {
		b = appendHead(b, r)
	} else {
		b = append(b, w.buf[:w.head]...)
	}
	b = strconv.AppendBool(appendKey(b, "cache_hit"), r.CacheHit)
	if r.Proxied {
		b = strconv.AppendBool(appendKey(b, "proxied"), true)
	}
	if r.ProxyOwner != "" {
		b = appendString(appendKey(b, "proxy_owner"), r.ProxyOwner)
	}
	if r.StoreHit {
		b = strconv.AppendBool(appendKey(b, "store_hit"), true)
	}
	if b, err = appendFloat(appendKey(b, "compile_ms"), r.CompileMS); err != nil {
		return nil, err
	}
	if r.SimCached {
		b = strconv.AppendBool(appendKey(b, "sim_cached"), true)
	}
	if r.SimMS != 0 {
		if b, err = appendFloat(appendKey(b, "sim_ms"), r.SimMS); err != nil {
			return nil, err
		}
	}
	if r.SimCyclesPerSec != 0 {
		if b, err = appendFloat(appendKey(b, "sim_cycles_per_sec"), r.SimCyclesPerSec); err != nil {
			return nil, err
		}
	}
	if w == nil {
		if b, err = appendMid(b, r); err != nil {
			return nil, err
		}
	} else {
		b = append(b, w.buf[w.head:w.mid]...)
	}
	if r.Store != nil {
		b = appendStoreStats(appendKey(b, "store"), r.Store)
	}
	if w == nil {
		b = appendResources(b, &r.Resources)
	} else {
		b = append(b, w.buf[w.mid:]...)
	}
	if len(r.Result) > 0 {
		b = appendKey(b, "result")
		if r.resultChecked {
			b = append(b, r.Result...)
		} else if b, err = appendMarshal(b, r.Result); err != nil {
			return nil, err
		}
	}
	if r.Profile != nil {
		if b, err = appendMarshal(appendKey(b, "profile"), r.Profile); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// appendHead opens the object with the program, arch and cache_key members.
func appendHead(b []byte, r *RunResponse) []byte {
	b = appendString(append(b, `{"program":`...), r.Program)
	b = appendString(appendKey(b, "arch"), r.Arch)
	return appendString(appendKey(b, "cache_key"), r.CacheKey)
}

// appendMid appends the phase_ms, mip_nodes_explored and stage_cache members.
func appendMid(b []byte, r *RunResponse) ([]byte, error) {
	if len(r.PhaseMS) > 0 {
		b = append(appendKey(b, "phase_ms"), '{')
		var err error
		for i, k := range sortedKeys(r.PhaseMS) {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendFloat(append(appendString(b, k), ':'), r.PhaseMS[k]); err != nil {
				return nil, err
			}
		}
		b = append(b, '}')
	}
	if r.MIPNodesExplored != 0 {
		b = strconv.AppendInt(appendKey(b, "mip_nodes_explored"), int64(r.MIPNodesExplored), 10)
	}
	if len(r.StageCache) > 0 {
		b = append(appendKey(b, "stage_cache"), '{')
		for i, k := range sortedKeys(r.StageCache) {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendBool(append(appendString(b, k), ':'), r.StageCache[k])
		}
		b = append(b, '}')
	}
	return b, nil
}

func appendResources(b []byte, r *ResourcesJSON) []byte {
	b = appendInt(append(b, `,"resources":{"pcu":`...), r.PCU)
	b = appendInt(append(b, `,"pmu":`...), r.PMU)
	b = appendInt(append(b, `,"ag":`...), r.AG)
	b = appendInt(append(b, `,"total":`...), r.Total)
	b = appendInt(append(b, `,"vus":`...), r.VUs)
	b = appendInt(append(b, `,"token_streams":`...), r.TokenStreams)
	return append(b, '}')
}

// appendStoreStats appends a store snapshot, its stages in key order.
func appendStoreStats(b []byte, st *store.Stats) []byte {
	b = append(b, '{')
	if st.Dir != "" {
		b = append(appendString(append(b, `"dir":`...), st.Dir), ',')
	}
	b = append(b, `"stages":`...)
	if st.Stages == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '{')
		for i, k := range sortedKeys(st.Stages) {
			if i > 0 {
				b = append(b, ',')
			}
			s := st.Stages[k]
			b = strconv.AppendInt(append(appendString(b, k), `:{"hits":`...), s.Hits, 10)
			b = strconv.AppendInt(append(b, `,"misses":`...), s.Misses, 10)
			b = strconv.AppendInt(append(b, `,"bytes_read":`...), s.BytesRead, 10)
			b = append(strconv.AppendInt(append(b, `,"bytes_written":`...), s.BytesWritten, 10), '}')
		}
		b = append(b, '}')
	}
	b = strconv.AppendInt(append(b, `,"solver_hits":`...), st.SolverHits, 10)
	b = strconv.AppendInt(append(b, `,"solver_misses":`...), st.SolverMiss, 10)
	b = appendInt(append(b, `,"mem_entries":`...), st.MemEntries)
	b = appendInt(append(b, `,"disk_entries":`...), st.DiskEntries)
	b = strconv.AppendInt(append(b, `,"disk_bytes":`...), st.DiskBytes, 10)
	return append(b, '}')
}

// sortedKeys returns m's keys in encoding/json's order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// appendKey appends `,"name":`; name needs no escaping.
func appendKey(b []byte, name string) []byte {
	b = append(append(b, ',', '"'), name...)
	return append(b, '"', ':')
}

func appendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

// appendString appends s as encoding/json quotes it with HTML escaping. A
// string of printable ASCII other than `"`, `\`, `<`, `>` and `&` is copied
// between quotes; any other goes through encoding/json.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(append(b, '"'), s...)
	return append(b, '"')
}

// appendFloat appends f as encoding/json writes a float64 — the shortest
// representation, exponent form below 1e-6 and from 1e21 on, "e-07" written
// "e-7" — and refuses NaN and ±Inf with encoding/json's error.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendMarshal appends encoding/json's encoding of v, and its error.
func appendMarshal(b []byte, v any) ([]byte, error) {
	m, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, m...), nil
}

// checkSimRecord is the one check a simulation record passes where it
// enters the process — a peer's record (acceptSimRecord) or one read from
// the store's disk tier (the sim stage's load check). The bytes must be one
// JSON object; they come back as encoding/json writes a RawMessage: compact,
// with <, >, &, U+2028 and U+2029 escaped. From then on the record is
// spliced into responses as it is. encodeResult's bytes are json.Marshal's,
// already in that form, and skip it.
func checkSimRecord(data []byte) ([]byte, error) {
	b, err := json.Marshal(json.RawMessage(data))
	if err != nil {
		return nil, err
	}
	if b[0] != '{' {
		return nil, errors.New("sim record is not a JSON object")
	}
	return b, nil
}
