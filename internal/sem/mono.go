package sem

import (
	"fmt"
	"sort"
	"strings"

	"procdecomp/internal/dist"
	"procdecomp/internal/lang"
)

// Monomorphization of mapping-polymorphic procedures (paper §5.1).
//
// A polymorphic procedure abstracts over mappings the way a polymorphic type
// system abstracts over types: "proc id[D: dist](a: int on D): int on D".
// Each instantiation found at a call site — id[proc(2)](b) — produces a
// specialized copy of the procedure with D replaced by the actual mapping,
// exactly the per-processor specialization the paper's Fig. 9 shows.
// Instantiations are shared: two calls with the same actual mappings reuse
// one copy.

func (c *checker) monomorphize() {
	var work []*lang.ProcDecl
	names := make([]string, 0, len(c.info.Procs))
	for n := range c.info.Procs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		work = append(work, c.info.Procs[n].Decl)
	}
	inst := map[string]string{} // canonical instantiation key -> clone name
	for len(work) > 0 {
		d := work[0]
		work = work[1:]
		lang.Inspect(d.Body, func(n any) bool {
			switch n := n.(type) {
			case *lang.CallStmt:
				n.Name, n.DistArgs = c.monoCall(n.Pos, n.Name, n.DistArgs, &work, inst)
			case *lang.CallExpr:
				n.Name, n.DistArgs = c.monoCall(n.Pos, n.Name, n.DistArgs, &work, inst)
			}
			return true
		})
	}
	// Drop templates from the program so downstream passes see only
	// monomorphic procedures.
	var decls []lang.Decl
	for _, d := range c.info.Prog.Decls {
		if pd, ok := d.(*lang.ProcDecl); ok && len(pd.DistParams) > 0 {
			continue
		}
		decls = append(decls, d)
	}
	c.info.Prog.Decls = decls
}

// monoCall resolves one call site: instantiating a template if needed, it
// returns the (possibly rewritten) callee name and the remaining dist args
// (always nil on success).
func (c *checker) monoCall(pos lang.Pos, name string, distArgs []lang.MapExpr,
	work *[]*lang.ProcDecl, inst map[string]string) (string, []lang.MapExpr) {
	tmpl, isTemplate := c.templates[name]
	if !isTemplate {
		return name, distArgs // checkCall reports leftover dist args later
	}
	if len(distArgs) == 0 {
		c.errorf(pos, "call to mapping-polymorphic %s requires instantiation, e.g. %s[proc(0)](...)", name, name)
		return name, nil
	}
	if len(distArgs) != len(tmpl.DistParams) {
		c.errorf(pos, "%s expects %d mapping argument(s), got %d",
			name, len(tmpl.DistParams), len(distArgs))
		return name, nil
	}
	keyParts := make([]string, len(distArgs))
	for i := range distArgs {
		k, ok := c.mapKey(&distArgs[i])
		if !ok {
			return name, nil
		}
		keyParts[i] = k
	}
	key := name + "[" + strings.Join(keyParts, ",") + "]"
	cloneName, ok := inst[key]
	if !ok {
		cloneName = fmt.Sprintf("%s__inst%d", name, len(inst))
		inst[key] = cloneName
		maps := map[string]*lang.MapExpr{}
		for i, dp := range tmpl.DistParams {
			maps[dp] = &distArgs[i]
		}
		clone := lang.CloneProc(tmpl, cloneName, &lang.Subst{Maps: maps})
		c.info.Prog.Decls = append(c.info.Prog.Decls, clone)
		c.info.Procs[cloneName] = &Proc{Name: cloneName, Decl: clone}
		*work = append(*work, clone)
	}
	return cloneName, nil
}

// mapKey canonicalizes a concrete mapping annotation for instantiation
// sharing.
func (c *checker) mapKey(m *lang.MapExpr) (string, bool) {
	switch m.Kind {
	case lang.MapAll:
		return dist.KindReplicated.String(), true
	case lang.MapProc:
		p, err := c.constEvalInt(m.Proc)
		if err != nil {
			c.errorf(m.Pos, "mapping argument: %v", err)
			return "", false
		}
		return fmt.Sprintf("proc(%d)", p), true
	case lang.MapNamed:
		if _, ok := c.distDecls[m.Name]; !ok {
			c.errorf(m.Pos, "mapping argument %s is not a declared decomposition", m.Name)
			return "", false
		}
		return "dist:" + m.Name, true
	}
	return "", false
}
