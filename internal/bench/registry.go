package bench

import (
	"errors"
	"fmt"

	"procdecomp/internal/machine"
	"procdecomp/internal/spmd"
	"procdecomp/internal/xform"
)

// A VariantSpec is one entry of the exported variant registry: the single
// place that ties a curve of Figs. 6/7 to its flag-friendly name, its
// transformation pipeline, and its compile/run hooks. pdbench and the pdmap
// search driver both consume this table, so the set of variants and the code
// each one generates cannot drift between the two.
type VariantSpec struct {
	Variant     Variant
	Name        string // short flag/mode name: rtr, ctr, opt1, opt2, opt3, hand
	Legend      string // the figure legend, Variant.String()
	Handwritten bool   // runs the wavefront package, not compiled code

	// Compile builds the per-process SPMD programs for the Fig. 1 source.
	// Handwritten has no compiled form and returns (nil, nil).
	Compile func(procs int, n, blk int64) ([]*spmd.Program, error)
	// Run measures one configuration on an explicit machine calibration,
	// validating the result against the sequential reference.
	Run func(cfg machine.Config, n, blk int64) (*Point, error)
}

// Pipeline reports the transformation passes the variant applies after
// compile-time resolution (nil for rtr/ctr/hand).
func (s VariantSpec) Pipeline(blk int64) []xform.Pass {
	if s.Handwritten {
		return nil
	}
	passes, _ := xform.StandardPipeline(s.Name, blk)
	return passes
}

// Variants lists the registry in presentation order (the order of
// AllVariants).
func Variants() []VariantSpec {
	specs := make([]VariantSpec, 0, len(AllVariants))
	for _, v := range AllVariants {
		spec, ok := SpecOf(v)
		if !ok {
			panic(fmt.Sprintf("bench: variant %v missing from the registry", v))
		}
		specs = append(specs, spec)
	}
	return specs
}

// SpecOf looks a variant's registry entry up by enum value.
func SpecOf(v Variant) (VariantSpec, bool) {
	name, ok := variantNames[v]
	if !ok {
		return VariantSpec{}, false
	}
	return makeSpec(v, name), true
}

// LookupVariant resolves a registry entry by its short name ("opt3") or its
// figure legend ("optimized III (blocked)").
func LookupVariant(name string) (VariantSpec, bool) {
	for _, v := range AllVariants {
		if variantNames[v] == name || v.String() == name {
			return makeSpec(v, variantNames[v]), true
		}
	}
	return VariantSpec{}, false
}

// variantNames pins each variant to its mode name. For the compiled variants
// the name doubles as the xform.StandardPipeline mode.
var variantNames = map[Variant]string{
	RunTime:      "rtr",
	CompileTime:  "ctr",
	OptimizedI:   "opt1",
	OptimizedII:  "opt2",
	OptimizedIII: "opt3",
	Handwritten:  "hand",
}

func makeSpec(v Variant, name string) VariantSpec {
	spec := VariantSpec{
		Variant:     v,
		Name:        name,
		Legend:      v.String(),
		Handwritten: v == Handwritten,
	}
	if spec.Handwritten {
		spec.Compile = func(procs int, n, blk int64) ([]*spmd.Program, error) { return nil, nil }
	} else {
		spec.Compile = func(procs int, n, blk int64) ([]*spmd.Program, error) {
			return compileGSAs(name, procs, n, blk)
		}
	}
	spec.Run = func(cfg machine.Config, n, blk int64) (*Point, error) {
		return RunGSWith(cfg, v, n, blk)
	}
	return spec
}

// compileGSAs compiles the Fig. 1 program under a named optimization mode:
// the one compile path behind CompileGS and the registry.
func compileGSAs(mode string, procs int, n, blk int64) ([]*spmd.Program, error) {
	info, err := checkGS(GSSource, procs, n)
	if err != nil {
		return nil, err
	}
	progs, err := xform.Compile(info, "gs_iteration", mode, blk)
	if errors.Is(err, xform.ErrUnknownMode) {
		err = fmt.Errorf("bench: unknown optimization mode %q", mode)
	}
	return progs, err
}
