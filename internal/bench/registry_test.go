package bench

import (
	"strings"
	"testing"

	"procdecomp/internal/machine"
	"procdecomp/internal/spmd"
	"procdecomp/internal/xform"
)

// The registry must cover every variant exactly once, under a unique name,
// with the legend matching the enum's String — the invariants its consumers
// (pdperf, the autotune and walker tests) rely on.
func TestRegistryCoversAllVariants(t *testing.T) {
	specs := Variants()
	if len(specs) != len(AllVariants) {
		t.Fatalf("registry has %d entries for %d variants", len(specs), len(AllVariants))
	}
	names := map[string]bool{}
	for i, spec := range specs {
		if spec.Variant != AllVariants[i] {
			t.Errorf("entry %d is %v, want %v", i, spec.Variant, AllVariants[i])
		}
		if spec.Name == "" || names[spec.Name] {
			t.Errorf("entry %v has empty or duplicate name %q", spec.Variant, spec.Name)
		}
		names[spec.Name] = true
		if spec.Legend != spec.Variant.String() {
			t.Errorf("entry %v legend %q != String %q", spec.Variant, spec.Legend, spec.Variant.String())
		}
		if spec.Handwritten != (spec.Variant == Handwritten) {
			t.Errorf("entry %v Handwritten flag wrong", spec.Variant)
		}
	}
}

// A compiled variant's registry name is its xform.StandardPipeline mode:
// CompileGS must generate exactly what xform.Compile does under that name,
// and the handwritten variant has no compiled form.
func TestRegistryCompileMatchesCompileGS(t *testing.T) {
	format := func(progs []*spmd.Program) string {
		var b strings.Builder
		for _, p := range progs {
			b.WriteString(spmd.Format(p))
		}
		return b.String()
	}
	for _, spec := range Variants() {
		direct, err := CompileGS(spec.Variant, 4, 16, 4)
		if err != nil {
			t.Fatalf("%v: CompileGS: %v", spec.Variant, err)
		}
		if spec.Handwritten {
			if direct != nil {
				t.Errorf("%v: handwritten variant compiled to programs", spec.Variant)
			}
			continue
		}
		info, err := checkGS(GSSource, 4, 16)
		if err != nil {
			t.Fatal(err)
		}
		byName, err := xform.Compile(info, "gs_iteration", spec.Name, 4)
		if err != nil {
			t.Fatalf("%v: xform.Compile(%q): %v", spec.Variant, spec.Name, err)
		}
		if format(direct) != format(byName) {
			t.Errorf("%v: CompileGS and mode %q produced different code", spec.Variant, spec.Name)
		}
	}
}

// A variant looked up in the registry runs as the enum value does: RunGS on
// the default machine measures exactly what RunGSWith measures.
func TestRegistryRunMatchesRunGS(t *testing.T) {
	spec, ok := SpecOf(OptimizedIII)
	if !ok {
		t.Fatal("opt3 missing")
	}
	got, err := RunGS(spec.Variant, 4, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunGSWith(machine.DefaultConfig(4), OptimizedIII, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("RunGS %+v != RunGSWith %+v", got, want)
	}
}

// The validated pipeline now rejects a non-positive strip size instead of
// silently skipping the pass.
func TestCompileGSRejectsBadBlock(t *testing.T) {
	if _, err := CompileGS(OptimizedIII, 4, 16, 0); err == nil {
		t.Error("OptimizedIII with block size 0 accepted")
	}
	// Variants below OptimizedIII ignore the block size entirely.
	if _, err := CompileGS(OptimizedII, 4, 16, 0); err != nil {
		t.Errorf("OptimizedII with block size 0: %v", err)
	}
}
