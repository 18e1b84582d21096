package lang

import (
	"fmt"
	"strconv"
	"strings"
)

// format pretty-prints a program as Idn source. The output re-parses to an
// equivalent tree (verified by the round-trip property test).
func format(p *Program) string {
	var b strings.Builder
	for i, d := range p.Decls {
		if i > 0 {
			b.WriteString("\n")
		}
		formatDecl(&b, d)
	}
	return b.String()
}

func formatDecl(b *strings.Builder, d Decl) {
	switch d := d.(type) {
	case *ConstDecl:
		fmt.Fprintf(b, "const %s = %s;\n", d.Name, FormatExpr(d.Value))
	case *DistDecl:
		args := make([]string, len(d.Args))
		for i, a := range d.Args {
			args[i] = FormatExpr(a)
		}
		fmt.Fprintf(b, "dist %s = %s(%s);\n", d.Name, d.Builtin, strings.Join(args, ", "))
	case *ProcDecl:
		fmt.Fprintf(b, "proc %s", d.Name)
		if len(d.DistParams) > 0 {
			parts := make([]string, len(d.DistParams))
			for i, n := range d.DistParams {
				parts[i] = n + ": dist"
			}
			fmt.Fprintf(b, "[%s]", strings.Join(parts, ", "))
		}
		b.WriteString("(")
		for i, p := range d.Params {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%s: %s", p.Name, formatType(p.Type))
			if p.Map != nil {
				b.WriteString(" on " + formatMap(p.Map))
			}
		}
		b.WriteString(")")
		if d.RetType != nil {
			fmt.Fprintf(b, ": %s", formatType(*d.RetType))
			if d.RetMap != nil {
				b.WriteString(" on " + formatMap(d.RetMap))
			}
		}
		b.WriteString(" ")
		formatBlock(b, d.Body, 0)
		b.WriteString("\n")
	}
}

func formatType(t TypeExpr) string {
	switch t.Base {
	case TMatrix:
		return fmt.Sprintf("matrix[%s, %s]", FormatExpr(t.Dims[0]), FormatExpr(t.Dims[1]))
	case TVector:
		return fmt.Sprintf("vector[%s]", FormatExpr(t.Dims[0]))
	default:
		return t.Base.String()
	}
}

func formatMap(m *MapExpr) string {
	switch m.Kind {
	case MapAll:
		return "all"
	case MapProc:
		return fmt.Sprintf("proc(%s)", FormatExpr(m.Proc))
	default:
		return m.Name
	}
}

func formatBlock(b *strings.Builder, blk *Block, depth int) {
	b.WriteString("{\n")
	for _, s := range blk.Stmts {
		formatStmt(b, s, depth+1)
	}
	indent(b, depth)
	b.WriteString("}")
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func formatStmt(b *strings.Builder, s Stmt, depth int) {
	indent(b, depth)
	switch s := s.(type) {
	case *LetStmt:
		fmt.Fprintf(b, "let %s", s.Name)
		if s.Type != nil {
			fmt.Fprintf(b, ": %s", formatType(*s.Type))
		}
		fmt.Fprintf(b, " = %s", FormatExpr(s.Init))
		if s.Map != nil {
			b.WriteString(" on " + formatMap(s.Map))
		}
		b.WriteString(";\n")
	case *AssignStmt:
		fmt.Fprintf(b, "%s = %s;\n", s.Name, FormatExpr(s.Value))
	case *StoreStmt:
		fmt.Fprintf(b, "%s[%s] = %s;\n", s.Array, formatExprList(s.Indices), FormatExpr(s.Value))
	case *ForStmt:
		fmt.Fprintf(b, "for %s = %s to %s", s.Var, FormatExpr(s.Lo), FormatExpr(s.Hi))
		if s.Step != nil {
			fmt.Fprintf(b, " by %s", FormatExpr(s.Step))
		}
		b.WriteString(" ")
		formatBlock(b, s.Body, depth)
		b.WriteString("\n")
	case *IfStmt:
		fmt.Fprintf(b, "if %s ", FormatExpr(s.Cond))
		formatBlock(b, s.Then, depth)
		if s.Else != nil {
			b.WriteString(" else ")
			formatBlock(b, s.Else, depth)
		}
		b.WriteString("\n")
	case *CallStmt:
		fmt.Fprintf(b, "call %s%s(%s);\n", s.Name, formatDistArgs(s.DistArgs), formatExprList(s.Args))
	case *ReturnStmt:
		if s.Value != nil {
			fmt.Fprintf(b, "return %s;\n", FormatExpr(s.Value))
		} else {
			b.WriteString("return;\n")
		}
	}
}

func formatDistArgs(args []MapExpr) string {
	if len(args) == 0 {
		return ""
	}
	parts := make([]string, len(args))
	for i := range args {
		parts[i] = formatMap(&args[i])
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

func formatExprList(es []Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = FormatExpr(e)
	}
	return strings.Join(parts, ", ")
}

// FormatExpr renders an expression with minimal parentheses.
func FormatExpr(e Expr) string { return formatExprPrec(e, 0) }

func formatExprPrec(e Expr, outer int) string {
	switch e := e.(type) {
	case *NumLit:
		if e.IsInt {
			return strconv.FormatInt(int64(e.Val), 10)
		}
		s := strconv.FormatFloat(e.Val, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case *BoolLit:
		if e.Val {
			return "true"
		}
		return "false"
	case *VarRef:
		return e.Name
	case *IndexExpr:
		return fmt.Sprintf("%s[%s]", e.Array, formatExprList(e.Indices))
	case *BinExpr:
		d := &ops[e.Op]
		if d.form == call {
			return fmt.Sprintf("%s(%s, %s)", e.Op, FormatExpr(e.L), FormatExpr(e.R))
		}
		p, lp := d.prec, d.prec
		if e.Op.Comparison() {
			lp++ // comparisons do not chain, on either side
		}
		s := fmt.Sprintf("%s %s %s", formatExprPrec(e.L, lp), e.Op, formatExprPrec(e.R, p+1))
		if p < outer {
			return "(" + s + ")"
		}
		return s
	case *UnExpr:
		x := formatExprPrec(e.X, precUnary)
		if e.Op == OpNot {
			return "not " + x
		}
		if strings.HasPrefix(x, "-") {
			// "--" would lex as a comment.
			return "-(" + x + ")"
		}
		return "-" + x
	case *CallExpr:
		return fmt.Sprintf("%s%s(%s)", e.Name, formatDistArgs(e.DistArgs), formatExprList(e.Args))
	case *AllocExpr:
		if e.Base == TMatrix {
			return fmt.Sprintf("matrix(%s, %s)", FormatExpr(e.Dims[0]), FormatExpr(e.Dims[1]))
		}
		return fmt.Sprintf("vector(%s)", FormatExpr(e.Dims[0]))
	default:
		return fmt.Sprintf("<?expr %T>", e)
	}
}
