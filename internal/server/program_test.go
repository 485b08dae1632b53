package server

import (
	"encoding/json"
	"reflect"
	"testing"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/sim"
)

// dotProgram is a small dot product in wire form, cheap enough for
// cycle-level simulation in tests.
func dotProgram() *ProgramJSON {
	src := 3
	return &ProgramJSON{
		Name: "dot",
		Mems: []MemJSON{
			{Kind: "dram", Name: "x", Dims: []int{4096}},
			{Kind: "dram", Name: "y", Dims: []int{4096}},
			{Kind: "reg", Name: "acc"},
		},
		Body: []NodeJSON{{
			Kind: "loop", Name: "i", Min: 0, Max: 4096, Step: 1, Par: 16,
			Body: []NodeJSON{{
				Kind: "block", Name: "mac",
				Ops: []OpJSON{
					{Op: "read", Mem: "x"},
					{Op: "read", Mem: "y"},
					{Op: "mul", In: []int{0, 1}},
					{Op: "accum", In: []int{2}},
					{Op: "write", Mem: "acc", Pattern: &PatternJSON{Kind: "const"}, Src: &src},
				},
			}},
		}},
	}
}

// fifoProgram is dotProgram with one more memory: a fifo of the given depth.
func fifoProgram(depth int) *ProgramJSON {
	pj := dotProgram()
	pj.Mems = append(pj.Mems, MemJSON{Kind: "fifo", Name: "q", Dims: []int{depth}})
	return pj
}

// TestDecodeProgramFIFODepth holds a fifo's depth to [1, arch.MaxStreamDepth],
// with 16 when the dims are empty.
func TestDecodeProgramFIFODepth(t *testing.T) {
	for _, depth := range []int{1, 16, arch.MaxStreamDepth} {
		if _, err := DecodeProgram(fifoProgram(depth)); err != nil {
			t.Errorf("depth %d: %v", depth, err)
		}
	}
	for _, depth := range []int{0, -1, arch.MaxStreamDepth + 1, 1 << 40} {
		if _, err := DecodeProgram(fifoProgram(depth)); err == nil {
			t.Errorf("depth %d decoded", depth)
		}
		if err := fifoProgram(depth).checkLimits(); err == nil {
			t.Errorf("depth %d passed checkLimits", depth)
		}
	}
	pj := dotProgram()
	pj.Mems = append(pj.Mems, MemJSON{Kind: "fifo", Name: "q"})
	if d, err := pj.Mems[len(pj.Mems)-1].fifoDepth(); err != nil || d != defaultFIFODepth {
		t.Errorf("empty dims: depth %d, %v; want %d", d, err, defaultFIFODepth)
	}
}

func TestDecodeProgramCompilesAndSimulates(t *testing.T) {
	prog, err := DecodeProgram(dotProgram())
	if err != nil {
		t.Fatalf("DecodeProgram: %v", err)
	}
	c, err := core.Compile(prog, core.DefaultConfig())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	r, err := sim.Cycle(c.Design(), 0)
	if err != nil {
		t.Fatalf("Cycle: %v", err)
	}
	if r.Cycles <= 0 {
		t.Fatalf("cycles = %d, want > 0", r.Cycles)
	}
}

func TestDecodeProgramAffinePattern(t *testing.T) {
	pj := &ProgramJSON{
		Name: "tile",
		Mems: []MemJSON{
			{Kind: "dram", Name: "x", Dims: []int{1 << 16}},
			{Kind: "sram", Name: "t", Dims: []int{512}},
		},
		Body: []NodeJSON{{
			Kind: "loop", Name: "a", Max: 4,
			Body: []NodeJSON{
				{
					Kind: "loop", Name: "i", Max: 512, Par: 16,
					Body: []NodeJSON{{
						Kind: "block", Name: "w",
						Ops: []OpJSON{
							{Op: "read", Mem: "x"},
							{Op: "write", Mem: "t", Pattern: &PatternJSON{Kind: "affine", Terms: []TermJSON{{Loop: "i", Coeff: 1}}}, Src: intp(0)},
						},
					}},
				},
				{
					Kind: "loop", Name: "j", Max: 512, Par: 16,
					Body: []NodeJSON{{
						Kind: "block", Name: "r",
						Ops: []OpJSON{
							{Op: "read", Mem: "t", Pattern: &PatternJSON{Kind: "affine", Terms: []TermJSON{{Loop: "j", Coeff: 1}}}},
							{Op: "chain", Of: "fma", N: 8},
							{Op: "accum", In: []int{0}},
						},
					}},
				},
			},
		}},
	}
	prog, err := DecodeProgram(pj)
	if err != nil {
		t.Fatalf("DecodeProgram: %v", err)
	}
	if _, err := core.Compile(prog, core.DefaultConfig()); err != nil {
		t.Fatalf("Compile: %v", err)
	}
}

func intp(v int) *int { return &v }

func TestDecodeProgramErrors(t *testing.T) {
	base := func() *ProgramJSON { return dotProgram() }
	cases := []struct {
		name   string
		mutate func(*ProgramJSON)
	}{
		{"unknown memory", func(p *ProgramJSON) { p.Body[0].Body[0].Ops[0].Mem = "nope" }},
		{"unknown op", func(p *ProgramJSON) { p.Body[0].Body[0].Ops[2].Op = "frobnicate" }},
		{"forward op reference", func(p *ProgramJSON) { p.Body[0].Body[0].Ops[2].In = []int{9} }},
		{"unknown pattern kind", func(p *ProgramJSON) { p.Body[0].Body[0].Ops[0].Pattern = &PatternJSON{Kind: "spiral"} }},
		{"unknown node kind", func(p *ProgramJSON) { p.Body[0].Kind = "goto" }},
		{"duplicate loop name", func(p *ProgramJSON) { p.Body[0].Body[0] = p.Body[0]; p.Body[0].Body[0].Body = nil }},
		{"empty body", func(p *ProgramJSON) { p.Body = nil }},
		{"unknown mem kind", func(p *ProgramJSON) { p.Mems[0].Kind = "tape" }},
		{"duplicate mem", func(p *ProgramJSON) { p.Mems[1].Name = "x" }},
		{"chain past the op ceiling", func(p *ProgramJSON) {
			p.Body[0].Body[0].Ops = append(p.Body[0].Body[0].Ops,
				OpJSON{Op: "chain", Of: "add", N: maxProgramOps / 2}, OpJSON{Op: "chain", Of: "add", N: maxProgramOps/2 + 1})
		}},
		{"affine term names non-enclosing loop", func(p *ProgramJSON) {
			p.Body[0].Body[0].Ops[0].Pattern = &PatternJSON{Kind: "affine", Terms: []TermJSON{{Loop: "zz", Coeff: 1}}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base()
			tc.mutate(p)
			if _, err := DecodeProgram(p); err == nil {
				t.Fatalf("want error, got none")
			}
		})
	}
}

// FuzzProgramJSON feeds arbitrary bytes through an inline program's decode
// path: JSON into ProgramJSON, then DecodeProgram. Neither may panic, the
// server's pre-compile checks must refuse every fifo DecodeProgram refuses
// for its depth, and the same bytes must decode to the same program (or the
// same error) twice. The seed corpus under testdata/fuzz/FuzzProgramJSON
// (the dot product, a chained block, fifo depths at and past both ends)
// runs under plain go test; explore with
//
//	go test -run '^$' -fuzz FuzzProgramJSON -fuzztime 30s ./internal/server/
func FuzzProgramJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var pj ProgramJSON
		if json.Unmarshal(data, &pj) != nil {
			return
		}
		limitErr := pj.checkLimits()
		p1, err1 := DecodeProgram(&pj)
		p2, err2 := DecodeProgram(&pj)
		if limitErr != nil && err1 == nil {
			t.Fatalf("checkLimits refuses a program DecodeProgram accepts: %v", limitErr)
		}
		if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
			t.Fatalf("two decodes disagree: %v / %v", err1, err2)
		}
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("two decodes built different programs")
		}
	})
}
