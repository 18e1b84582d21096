package bench

import "fmt"

// A VariantSpec is one entry of the exported variant registry: the single
// place that ties a curve of Figs. 6/7 to its flag-friendly name and its
// transformation pipeline. CompileGS and RunGSWith take the Variant. The
// table's consumers are the pdperf benchmark and the tests that check the
// cost model (autotune) and the walker against every variant; the pdmap
// search does not read it — autotune imports bench only in its tests.
type VariantSpec struct {
	Variant     Variant
	Name        string // short flag/mode name: rtr, ctr, opt1, opt2, opt3, hand
	Legend      string // the figure legend, Variant.String()
	Handwritten bool   // runs the wavefront package, not compiled code
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
	return VariantSpec{Variant: v, Name: name, Legend: v.String(), Handwritten: v == Handwritten}, true
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
