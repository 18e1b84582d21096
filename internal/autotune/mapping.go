package autotune

import (
	"fmt"
	"strconv"
	"strings"

	"procdecomp/internal/dist"
)

// ParseMapping parses a mapping spelled on a command line, the inverse of
// Mapping.String:
//
//	all  single  block2d(2x4)  cyclic_cols(8)  block_rows
//
// A 1-D family without a span (no parentheses) gets Span 0; callers default
// it to the machine size.
func ParseMapping(s string) (Mapping, error) {
	s = strings.TrimSpace(s)
	name, arg := s, ""
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return Mapping{}, fmt.Errorf("autotune: mapping %q: missing )", s)
		}
		name, arg = s[:i], s[i+1:len(s)-1]
	}
	k, err := dist.Parse(name)
	if err != nil {
		return Mapping{}, err
	}
	var args []int64
	if arg != "" {
		for _, a := range strings.Split(arg, "x") {
			v, err := strconv.ParseInt(strings.TrimSpace(a), 10, 64)
			if err != nil || v < 1 {
				return Mapping{}, fmt.Errorf("autotune: mapping %q: bad parameter %q", s, a)
			}
			args = append(args, v)
		}
	}
	if len(args) != k.Arity() && !(len(args) == 0 && k.Arity() == 1) { // no span given: Span stays 0
		return Mapping{}, fmt.Errorf("autotune: mapping %q: %s takes %d parameter(s)", s, k, k.Arity())
	}
	return mappingOf(k, args), nil
}

// mappingOf is family k with its declaration's parameters args: the span,
// the grid, or none.
func mappingOf(k dist.Kind, args []int64) Mapping {
	m := Mapping{Kind: k}
	if len(args) == 2 {
		m.PR, m.PC = args[0], args[1]
	} else if len(args) == 1 {
		m.Span = args[0]
	}
	return m
}
