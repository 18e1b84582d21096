package spmd

import (
	"fmt"
	"strings"

	"procdecomp/internal/expr"
	"procdecomp/internal/lang"
)

// FormatC renders a specialized program as C for the iPSC/2, in the style of
// the paper's Appendix A: csend/crecv for messages and the is_read/is_write
// run-time-system macros for I-structure access. The output is what the
// authors' compiler ultimately produced ("Our goal is to produce C code for
// the iPSC/2 that does as well as a handwritten program", §2.3); here it
// serves as a faithful artifact and for inspection — the simulator executes
// the IR directly.
//
// Conventions: values are doubles; local I-structure matrices are flattened
// row-major by the LOCAL(a, i, j) macro; message buffers are double arrays
// indexed from 1 like the paper's vectors; each channel's tag is the csend
// "type" argument.
func FormatC(p *Program) string {
	g := &cgen{}
	var b strings.Builder

	fmt.Fprintf(&b, "/* %s: ", p.Name)
	if p.Proc < 0 {
		b.WriteString("generic run-time resolution program (all nodes) */\n")
	} else {
		fmt.Fprintf(&b, "compile-time resolution program for node %d */\n", p.Proc)
	}
	b.WriteString(`#include "istruct.h" /* is_read, is_write, istructure (run-time system) */
#include <cube.h>     /* csend, crecv, mynode (iPSC/2) */

`)
	fmt.Fprintf(&b, "void %s(", cIdent(p.Name))
	for i, prm := range p.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "istructure %s", cIdent(prm.Name))
	}
	b.WriteString(")\n{\n")

	// Declarations: scan the body for temporaries and buffers.
	decls := g.scan(p.Body)
	if len(decls.scalars) > 0 {
		fmt.Fprintf(&b, "  double %s;\n", strings.Join(decls.scalars, ", "))
	}
	if len(decls.ints) > 0 {
		fmt.Fprintf(&b, "  int %s;\n", strings.Join(decls.ints, ", "))
	}
	for _, arr := range decls.arrays {
		fmt.Fprintf(&b, "  istructure %s;\n", arr)
	}
	if len(decls.scalars)+len(decls.ints)+len(decls.arrays) > 0 {
		b.WriteString("\n")
	}

	g.stmts(&b, p.Body, 1)
	b.WriteString("}\n")
	return b.String()
}

type cdecls struct {
	scalars []string
	ints    []string
	arrays  []string
}

type cgen struct {
	seen map[string]bool
}

func (g *cgen) mark(set *[]string, name string) {
	if g.seen == nil {
		g.seen = map[string]bool{}
	}
	if !g.seen[name] {
		g.seen[name] = true
		*set = append(*set, name)
	}
}

// scan collects declarations: double temporaries, int loop variables, local
// istructure allocations, and message buffers (declared as double arrays).
func (g *cgen) scan(body []Stmt) cdecls {
	var d cdecls
	Inspect(body, func(st Stmt) bool {
		switch st := st.(type) {
		case *Alloc:
			g.mark(&d.arrays, cIdent(st.Array))
		case *AllocBuf:
			// emitted inline as a calloc, declared as a pointer
			g.mark(&d.scalars, "*"+cIdent(st.Buf))
		case *AssignVar:
			g.mark(&d.scalars, cIdent(st.Name))
		case *AssignIVar:
			g.mark(&d.scalars, cIdent(st.Name))
		case *ARead:
			g.mark(&d.scalars, cIdent(st.Dst))
		case *BufRead:
			g.mark(&d.scalars, cIdent(st.Dst))
		case *Recv:
			g.mark(&d.scalars, cIdent(st.Dst))
		case *Coerce:
			g.mark(&d.scalars, cIdent(st.Dst))
		case *For:
			g.mark(&d.ints, cIdent(st.Var))
		}
		return true
	})
	return d
}

func (g *cgen) stmts(b *strings.Builder, body []Stmt, depth int) {
	for _, st := range body {
		g.stmt(b, st, depth)
	}
}

func cInd(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func (g *cgen) stmt(b *strings.Builder, st Stmt, depth int) {
	cInd(b, depth)
	switch st := st.(type) {
	case *Alloc:
		parts := make([]string, len(st.Shape))
		for i, e := range st.Shape {
			parts[i] = cExpr(e)
		}
		fmt.Fprintf(b, "%s = local_alloc(%s);\n", cIdent(st.Array), strings.Join(parts, ", "))
	case *AllocBuf:
		fmt.Fprintf(b, "%s = (double *) calloc(%s + 1, sizeof(double));\n",
			cIdent(st.Buf), cExpr(st.Size))
	case *AssignVar, *AssignIVar:
		var name string
		var val VExpr
		if s, ok := st.(*AssignVar); ok {
			name, val = s.Name, s.Val
		} else {
			s := st.(*AssignIVar)
			name, val = s.Name, s.Val
		}
		fmt.Fprintf(b, "%s = %s;\n", cIdent(name), cVExpr(val))
	case *ARead:
		fmt.Fprintf(b, "%s = is_read(%s, %s);\n", cIdent(st.Dst), cIdent(st.Array), cLocal(st.Idx))
	case *AWrite:
		fmt.Fprintf(b, "is_write(%s, %s, %s);\n", cIdent(st.Array), cLocal(st.Idx), cVExpr(st.Val))
	case *BufRead:
		fmt.Fprintf(b, "%s = %s[%s];\n", cIdent(st.Dst), cIdent(st.Buf), cExpr(st.Idx))
	case *BufWrite:
		fmt.Fprintf(b, "%s[%s] = %s;\n", cIdent(st.Buf), cExpr(st.Idx), cVExpr(st.Val))
	case *Send:
		fmt.Fprintf(b, "{ double tmp = %s; csend(%d, &tmp, sizeof(double), %s, 0); }\n",
			cVExpr(st.Val), st.Tag, cExpr(st.Dst))
	case *Recv:
		fmt.Fprintf(b, "crecv(%d, &%s, sizeof(double)); /* from %s */\n",
			st.Tag, cIdent(st.Dst), cExpr(st.Src))
	case *SendBuf:
		fmt.Fprintf(b, "csend(%d, &%s[%s], sizeof(double) * (%s - %s + 1), %s, 0);\n",
			st.Tag, cIdent(st.Buf), cExpr(st.Lo), cExpr(st.Hi), cExpr(st.Lo), cExpr(st.Dst))
	case *RecvBuf:
		fmt.Fprintf(b, "crecv(%d, &%s[%s], sizeof(double) * (%s - %s + 1)); /* from %s */\n",
			st.Tag, cIdent(st.Buf), cExpr(st.Lo), cExpr(st.Hi), cExpr(st.Lo), cExpr(st.Src))
	case *Coerce:
		// Run-time resolution fallback: expand the ownership tests inline.
		src := cIdent(st.Var)
		if st.Array != "" {
			src = fmt.Sprintf("is_read(%s, %s)", cIdent(st.Array), cLocal(st.Idx))
		}
		owner := "OWNER_ALL"
		if !st.OwnerAll {
			owner = cExpr(st.Owner)
		}
		needer := "NEEDER_ALL"
		if !st.NeederAll {
			needer = cExpr(st.Needer)
		}
		fmt.Fprintf(b, "%s = coerce(%s, %s, %s, %d); /* run-time resolution */\n",
			cIdent(st.Dst), src, owner, needer, st.Tag)
	case *For:
		fmt.Fprintf(b, "for (%s = %s; %s <= %s; %s += %s) {\n",
			cIdent(st.Var), cExpr(st.Lo), cIdent(st.Var), cExpr(st.Hi), cIdent(st.Var), cExpr(st.Step))
		g.stmts(b, st.Body, depth+1)
		cInd(b, depth)
		b.WriteString("}\n")
	case *Guard:
		fmt.Fprintf(b, "if (%s == mynode()) {\n", cExpr(st.Proc))
		g.stmts(b, st.Body, depth+1)
		cInd(b, depth)
		b.WriteString("}\n")
	case *IfValue:
		fmt.Fprintf(b, "if (%s) {\n", cVExpr(st.Cond))
		g.stmts(b, st.Then, depth+1)
		cInd(b, depth)
		b.WriteString("}")
		if len(st.Else) > 0 {
			b.WriteString(" else {\n")
			g.stmts(b, st.Else, depth+1)
			cInd(b, depth)
			b.WriteString("}")
		}
		b.WriteString("\n")
	default:
		fmt.Fprintf(b, "/* unknown statement %T */\n", st)
	}
}

// cIdent sanitizes IR names ("j#2.round" is not a C identifier).
func cIdent(name string) string {
	r := strings.NewReplacer("#", "_", ".", "_", "-", "_")
	return r.Replace(name)
}

// cLocal renders a local index as the LOCAL flattening macro's arguments.
func cLocal(idx []expr.Expr) string {
	parts := make([]string, len(idx))
	for i, e := range idx {
		parts[i] = cExpr(e)
	}
	return "LOCAL(" + strings.Join(parts, ", ") + ")"
}

// cExpr renders a symbolic integer expression in C, spelling an operator C
// does not have through its cMacros macro as cVExpr does, so the C semantics
// match the compiler's (the paper's index arithmetic is non-negative, where
// div and mod coincide with / and %). The canonical printer writes div and
// mod infix, "((x) mod m)", and min and max as calls, "min(a, b)".
func cExpr(e expr.Expr) string {
	s := strings.NewReplacer("#", "_", ".", "_").Replace(e.String())
	for _, op := range []lang.Op{lang.OpDivInt, lang.OpMod} {
		s = rewriteBinword(s, op.String(), cMacros[op])
	}
	for _, op := range []lang.Op{lang.OpMin, lang.OpMax} {
		s = strings.ReplaceAll(s, op.String()+"(", cMacros[op]+"(")
	}
	return s
}

// rewriteBinword turns "(X word Y)" into "MACRO(X, Y)" for the canonical
// parenthesized forms the expression printer emits.
func rewriteBinword(s, word, macro string) string {
	needle := " " + word + " "
	for {
		i := strings.Index(s, needle)
		if i < 0 {
			return s
		}
		// Find the opening paren that starts this form: scan left matching
		// parens from i.
		depth := 0
		start := -1
		for k := i - 1; k >= 0; k-- {
			switch s[k] {
			case ')':
				depth++
			case '(':
				if depth == 0 {
					start = k
				} else {
					depth--
				}
			}
			if start >= 0 {
				break
			}
		}
		// Find the closing paren to the right.
		depth = 0
		end := -1
		for k := i + len(needle); k < len(s); k++ {
			switch s[k] {
			case '(':
				depth++
			case ')':
				if depth == 0 {
					end = k
				} else {
					depth--
				}
			}
			if end >= 0 {
				break
			}
		}
		if start < 0 || end < 0 {
			return s // not the canonical parenthesized form; leave as-is
		}
		left := s[start+1 : i]
		right := s[i+len(needle) : end]
		s = s[:start] + macro + "(" + left + ", " + right + ")" + s[end+1:]
	}
}

// C spells an Idn operator as Idn does, except for these: cSpelled lists
// C's own operators, and cMacros the preamble's macros, which C calls on the
// operands.
var (
	cSpelled = map[lang.Op]string{lang.OpAnd: "&&", lang.OpOr: "||", lang.OpNot: "!"}
	cMacros  = map[lang.Op]string{lang.OpMin: "MIN", lang.OpMax: "MAX", lang.OpDivInt: "FLOORDIV", lang.OpMod: "EUCMOD"}
)

func cOp(op lang.Op) string {
	if s, ok := cSpelled[op]; ok {
		return s
	}
	return op.String()
}

// cVExpr renders a data-value expression in C.
func cVExpr(v VExpr) string {
	switch v := v.(type) {
	case VConst:
		return fmt.Sprintf("%g", v.F)
	case VVar:
		return cIdent(v.Name)
	case VInt:
		return cExpr(v.X)
	case VBin:
		if macro, ok := cMacros[v.Op]; ok {
			return fmt.Sprintf("%s(%s, %s)", macro, cVExpr(v.L), cVExpr(v.R))
		}
		return fmt.Sprintf("(%s %s %s)", cVExpr(v.L), cOp(v.Op), cVExpr(v.R))
	case VUn:
		return fmt.Sprintf("%s(%s)", cOp(v.Op), cVExpr(v.X))
	default:
		return "/* ? */0"
	}
}
