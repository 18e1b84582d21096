package bench

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
	specs := make([]VariantSpec, len(AllVariants))
	for i, v := range AllVariants {
		specs[i], _ = SpecOf(v)
	}
	return specs
}

// SpecOf looks a variant's registry entry up by enum value.
func SpecOf(v Variant) (VariantSpec, bool) {
	if v < 0 || int(v) >= len(variants) {
		return VariantSpec{}, false
	}
	e := variants[v]
	return VariantSpec{Variant: v, Name: e.name, Legend: e.legend, Handwritten: v == Handwritten}, true
}

// variants is the registry, indexed by Variant: each variant's mode name
// (for the compiled variants, its xform.StandardPipeline mode) and its
// figure legend.
var variants = [...]struct{ name, legend string }{
	RunTime:      {"rtr", "run-time resolution"},
	CompileTime:  {"ctr", "compile-time resolution"},
	OptimizedI:   {"opt1", "optimized I (vectorized)"},
	OptimizedII:  {"opt2", "optimized II (pipelined)"},
	OptimizedIII: {"opt3", "optimized III (blocked)"},
	Handwritten:  {"hand", "handwritten"},
}
