package arch

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestSpecJSONDefaults(t *testing.T) {
	s, err := (&SpecJSON{}).Spec()
	if err != nil {
		t.Fatalf("Spec: %v", err)
	}
	if s.Name != SARA20x20().Name {
		t.Errorf("empty request should yield the 20x20 preset, got %s", s.Name)
	}
	if s.DefaultStreamHops != 4 {
		t.Errorf("DefaultStreamHops = %d, want preset value 4", s.DefaultStreamHops)
	}
}

func TestSpecJSONOverrides(t *testing.T) {
	j := &SpecJSON{
		Preset:            "v1",
		ClockGHz:          1.4,
		DRAMChannels:      8,
		DefaultStreamHops: 7,
		NumPCU:            100,
	}
	s, err := j.Spec()
	if err != nil {
		t.Fatalf("Spec: %v", err)
	}
	if s.ClockGHz != 1.4 || s.DRAM.Channels != 8 || s.DefaultStreamHops != 7 || s.NumPCU != 100 {
		t.Errorf("overrides not applied: %+v", s)
	}
	if s.DRAM.Kind != DDR3 {
		t.Errorf("v1 preset should keep DDR3, got %s", s.DRAM.Kind)
	}
}

func TestSpecJSONScale(t *testing.T) {
	s, err := (&SpecJSON{Scale: 2}).Spec()
	if err != nil {
		t.Fatalf("Spec: %v", err)
	}
	base := SARA20x20()
	if s.NumPCU != 2*base.NumPCU || s.DRAM.Channels != 2*base.DRAM.Channels {
		t.Errorf("scale 2 not applied: %+v", s)
	}
}

func TestSpecJSONRejectsUnknownPreset(t *testing.T) {
	if _, err := (&SpecJSON{Preset: "40x40"}).Spec(); err == nil {
		t.Fatal("expected error for unknown preset")
	}
	if _, err := Preset("40x40"); err == nil {
		t.Fatal("Preset accepted an unknown name")
	}
	for name, want := range map[string]string{
		"": "plasticine-20x20-hbm2", "20x20": "plasticine-20x20-hbm2", "sara20x20": "plasticine-20x20-hbm2",
		"v1": "plasticine-v1-ddr3", "plasticine-v1": "plasticine-v1-ddr3",
	} {
		if s, err := Preset(name); err != nil || s.Name != want {
			t.Errorf("Preset(%q): %v; want %s", name, err, want)
		}
	}
}

func TestSpecJSONTunerKnobs(t *testing.T) {
	j := &SpecJSON{Rows: 10, Cols: 12, StreamDepth: 8, NumAG: 24}
	s, err := j.Spec()
	if err != nil {
		t.Fatalf("Spec: %v", err)
	}
	if s.Rows != 10 || s.Cols != 12 {
		t.Errorf("grid override not applied: %dx%d", s.Rows, s.Cols)
	}
	if s.PCU.InBufDepth != 8 || s.PMU.InBufDepth != 8 || s.AG.InBufDepth != 8 {
		t.Errorf("stream_depth should set every unit type's InBufDepth: PCU %d PMU %d AG %d",
			s.PCU.InBufDepth, s.PMU.InBufDepth, s.AG.InBufDepth)
	}
	if s.NumAG != 24 {
		t.Errorf("num_ag override not applied: %d", s.NumAG)
	}
}

// TestSpecJSONRejectsBadKnobs is the satellite-1 contract: the tuner builds
// SpecJSON values programmatically, and any nonpositive unit count, grid
// dimension, or DRAM channel count must be rejected with an error naming the
// offending field — not silently simulated.
func TestSpecJSONRejectsBadKnobs(t *testing.T) {
	cases := []struct {
		name string
		j    SpecJSON
		want string // substring the error must carry
	}{
		{"negative num_pcu", SpecJSON{NumPCU: -1}, "num_pcu"},
		{"negative num_pmu", SpecJSON{NumPMU: -200}, "num_pmu"},
		{"negative num_ag", SpecJSON{NumAG: -3}, "num_ag"},
		{"negative rows", SpecJSON{Rows: -20}, "rows"},
		{"negative cols", SpecJSON{Cols: -20}, "cols"},
		{"negative dram_channels", SpecJSON{DRAMChannels: -16}, "dram_channels"},
		{"negative stream_depth", SpecJSON{StreamDepth: -16}, "stream_depth"},
		{"negative scale", SpecJSON{Scale: -2}, "scale"},
		{"negative clock", SpecJSON{ClockGHz: -1.0}, "clock_ghz"},
		{"negative hop latency", SpecJSON{NetHopLatencyCycles: -2}, "net_hop_latency_cycles"},
		{"negative stream hops", SpecJSON{DefaultStreamHops: -4}, "default_stream_hops"},
		// Above the ceilings: each of these once crashed or wedged sarad.
		{"huge dram_channels", SpecJSON{DRAMChannels: 1 << 44}, "dram_channels"},
		{"huge rows", SpecJSON{Rows: 1 << 50, Cols: 4}, "rows"},
		{"huge cols", SpecJSON{Cols: 1 << 40}, "cols"},
		{"too many grid cells", SpecJSON{Rows: 1024, Cols: 1024}, "rows × cols"},
		{"huge num_pcu", SpecJSON{NumPCU: 1 << 40}, "num_pcu"},
		{"huge num_ag", SpecJSON{NumAG: MaxUnits + 1}, "num_ag"},
		{"huge stream_depth", SpecJSON{StreamDepth: 1 << 30}, "stream_depth"},
		{"scale above the ceiling", SpecJSON{Scale: MaxScale + 1}, "scale"},
		{"scale that wraps the unit counts", SpecJSON{Scale: 1 << 62}, "scale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.j.Spec()
			if err == nil {
				t.Fatalf("SpecJSON %+v should be rejected", tc.j)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q should name field %q", err, tc.want)
			}
		})
	}
}

// TestSpecJSONCeilingsAdmitEveryPresetScale: every preset at every scale a
// request may ask for passes Validate, so the ceilings refuse only what no
// preset reaches.
func TestSpecJSONCeilingsAdmitEveryPresetScale(t *testing.T) {
	for _, preset := range []string{"20x20", "v1"} {
		for scale := 1; scale <= MaxScale; scale++ {
			if _, err := (&SpecJSON{Preset: preset, Scale: scale}).Spec(); err != nil {
				t.Errorf("preset %s scale %d: %v", preset, scale, err)
			}
		}
	}
}

// FuzzSpecJSON: arbitrary bytes decoded as a request's arch member never
// panic Spec(); a spec it accepts passes Validate and sits inside the
// ceilings; and re-encoding an accepted SpecJSON yields the same Spec. The
// seed corpus in testdata/fuzz/FuzzSpecJSON (among it the two arch members
// that once crashed and wedged sarad) runs under plain go test; explore with
//
//	go test -run '^$' -fuzz FuzzSpecJSON -fuzztime 30s ./internal/arch/
func FuzzSpecJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var j SpecJSON
		if json.Unmarshal(data, &j) != nil {
			return
		}
		s, err := j.Spec()
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Spec() returned a spec Validate refuses: %v", err)
		}
		if s.Rows*s.Cols > MaxGridCells || s.NumPCU > MaxUnits || s.NumPMU > MaxUnits || s.NumAG > MaxUnits ||
			s.DRAM.Channels > MaxDRAMChannels || s.PCU.InBufDepth > MaxStreamDepth ||
			s.PMU.InBufDepth > MaxStreamDepth || s.AG.InBufDepth > MaxStreamDepth {
			t.Fatalf("accepted spec above a ceiling: %+v", s)
		}
		again, err := json.Marshal(&j)
		if err != nil {
			t.Fatalf("an accepted SpecJSON does not encode: %v", err)
		}
		var j2 SpecJSON
		if err := json.Unmarshal(again, &j2); err != nil {
			t.Fatalf("a re-encoded SpecJSON does not decode: %v\n%s", err, again)
		}
		s2, err := j2.Spec()
		if err != nil {
			t.Fatalf("re-encoding %s made the spec invalid: %v", again, err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Errorf("re-encoding changed the spec\n got %+v\nwant %+v", s2, s)
		}
	})
}
