package lang

import (
	"fmt"
	"strconv"
)

// Parser is a recursive-descent parser for Idn with one-token lookahead and
// cheap backtracking (used only to disambiguate "f[proc(2)](x)" calls from
// "A[i,j]" index expressions).
type Parser struct {
	toks []Token
	i    int
}

// Parse parses a complete program, reporting the first syntax error.
func Parse(src string) (*Program, error) {
	toks, errs := Tokenize(src)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	p := &Parser{toks: toks}
	prog := &Program{}
	defer func() {}()
	var perr error
	func() {
		defer func() {
			if r := recover(); r != nil {
				if se, ok := r.(*SyntaxError); ok {
					perr = se
					return
				}
				panic(r)
			}
		}()
		for p.peek().Kind != EOF {
			prog.Decls = append(prog.Decls, p.parseDecl())
		}
	}()
	if perr != nil {
		return nil, perr
	}
	return prog, nil
}

func (p *Parser) peek() Token    { return p.toks[p.i] }
func (p *Parser) next() Token    { t := p.toks[p.i]; p.i++; return t }
func (p *Parser) at(k Kind) bool { return p.peek().Kind == k }

func (p *Parser) accept(k Kind) (Token, bool) {
	if p.at(k) {
		return p.next(), true
	}
	return Token{}, false
}

func (p *Parser) expect(k Kind) Token {
	if !p.at(k) {
		p.fail("expected %s, found %s", k, p.peek())
	}
	return p.next()
}

func (p *Parser) fail(format string, args ...any) {
	panic(&SyntaxError{Pos: p.peek().Pos, Msg: fmt.Sprintf(format, args...)})
}

// --- declarations ---

func (p *Parser) parseDecl() Decl {
	switch p.peek().Kind {
	case KwConst:
		t := p.next()
		name := p.expect(IDENT).Text
		p.expect(Assign)
		v := p.parseExpr()
		p.expect(Semi)
		return &ConstDecl{Pos: t.Pos, Name: name, Value: v}
	case KwDist:
		t := p.next()
		name := p.expect(IDENT).Text
		p.expect(Assign)
		builtin := p.expect(IDENT).Text
		p.expect(LParen)
		var args []Expr
		if !p.at(RParen) {
			args = append(args, p.parseExpr())
			for {
				if _, ok := p.accept(Comma); !ok {
					break
				}
				args = append(args, p.parseExpr())
			}
		}
		p.expect(RParen)
		p.expect(Semi)
		return &DistDecl{Pos: t.Pos, Name: name, Builtin: builtin, Args: args}
	case KwProc:
		return p.parseProc()
	default:
		p.fail("expected declaration, found %s", p.peek())
		return nil
	}
}

func (p *Parser) parseProc() *ProcDecl {
	t := p.expect(KwProc)
	d := &ProcDecl{Pos: t.Pos, Name: p.expect(IDENT).Text}
	if _, ok := p.accept(LBrack); ok {
		for {
			name := p.expect(IDENT).Text
			p.expect(Colon)
			p.expect(KwDist)
			d.DistParams = append(d.DistParams, name)
			if _, ok := p.accept(Comma); !ok {
				break
			}
		}
		p.expect(RBrack)
	}
	p.expect(LParen)
	if !p.at(RParen) {
		for {
			d.Params = append(d.Params, p.parseParam())
			if _, ok := p.accept(Comma); !ok {
				break
			}
		}
	}
	p.expect(RParen)
	if _, ok := p.accept(Colon); ok {
		ty := p.parseType()
		d.RetType = &ty
		if p.at(KwOn) {
			d.RetMap = p.parseMap()
		}
	}
	d.Body = p.parseBlock()
	return d
}

func (p *Parser) parseParam() Param {
	t := p.expect(IDENT)
	p.expect(Colon)
	param := Param{Pos: t.Pos, Name: t.Text, Type: p.parseType()}
	if p.at(KwOn) {
		param.Map = p.parseMap()
	}
	return param
}

func (p *Parser) parseType() TypeExpr {
	t := p.peek()
	switch t.Kind {
	case KwInt:
		p.next()
		return TypeExpr{Pos: t.Pos, Base: TInt}
	case KwReal:
		p.next()
		return TypeExpr{Pos: t.Pos, Base: TReal}
	case KwBool:
		p.next()
		return TypeExpr{Pos: t.Pos, Base: TBool}
	case KwMatrix:
		p.next()
		p.expect(LBrack)
		r := p.parseExpr()
		p.expect(Comma)
		c := p.parseExpr()
		p.expect(RBrack)
		return TypeExpr{Pos: t.Pos, Base: TMatrix, Dims: []Expr{r, c}}
	case KwVector:
		p.next()
		p.expect(LBrack)
		n := p.parseExpr()
		p.expect(RBrack)
		return TypeExpr{Pos: t.Pos, Base: TVector, Dims: []Expr{n}}
	default:
		p.fail("expected type, found %s", t)
		return TypeExpr{}
	}
}

// parseMap parses "on <mapping>".
func (p *Parser) parseMap() *MapExpr {
	p.expect(KwOn)
	return p.parseMapBody()
}

func (p *Parser) parseMapBody() *MapExpr {
	t := p.peek()
	switch t.Kind {
	case KwAll:
		p.next()
		return &MapExpr{Pos: t.Pos, Kind: MapAll}
	case KwProc:
		p.next()
		p.expect(LParen)
		e := p.parseExpr()
		p.expect(RParen)
		return &MapExpr{Pos: t.Pos, Kind: MapProc, Proc: e}
	case IDENT:
		p.next()
		return &MapExpr{Pos: t.Pos, Kind: MapNamed, Name: t.Text}
	default:
		p.fail("expected mapping (a dist name, proc(e), or all), found %s", t)
		return nil
	}
}

// --- statements ---

func (p *Parser) parseBlock() *Block {
	t := p.expect(LBrace)
	b := &Block{Pos: t.Pos}
	for !p.at(RBrace) {
		b.Stmts = append(b.Stmts, p.parseStmt())
	}
	p.expect(RBrace)
	return b
}

func (p *Parser) parseStmt() Stmt {
	t := p.peek()
	switch t.Kind {
	case KwLet:
		p.next()
		name := p.expect(IDENT).Text
		s := &LetStmt{Pos: t.Pos, Name: name}
		if _, ok := p.accept(Colon); ok {
			ty := p.parseType()
			s.Type = &ty
		}
		if p.at(KwOn) {
			s.Map = p.parseMap()
		}
		p.expect(Assign)
		s.Init = p.parseExpr()
		// "let A = matrix(N,N) on Column": mapping may follow the allocator.
		if p.at(KwOn) {
			if s.Map != nil {
				p.fail("duplicate mapping on let")
			}
			s.Map = p.parseMap()
		}
		p.expect(Semi)
		return s
	case KwFor:
		p.next()
		v := p.expect(IDENT).Text
		p.expect(Assign)
		lo := p.parseExpr()
		p.expect(KwTo)
		hi := p.parseExpr()
		s := &ForStmt{Pos: t.Pos, Var: v, Lo: lo, Hi: hi}
		if _, ok := p.accept(KwBy); ok {
			s.Step = p.parseExpr()
		}
		s.Body = p.parseBlock()
		return s
	case KwIf:
		p.next()
		cond := p.parseExpr()
		s := &IfStmt{Pos: t.Pos, Cond: cond, Then: p.parseBlock()}
		if _, ok := p.accept(KwElse); ok {
			s.Else = p.parseBlock()
		}
		return s
	case KwReturn:
		p.next()
		s := &ReturnStmt{Pos: t.Pos}
		if !p.at(Semi) {
			s.Value = p.parseExpr()
		}
		p.expect(Semi)
		return s
	case KwCall:
		p.next()
		name := p.expect(IDENT).Text
		distArgs := p.parseOptDistArgs()
		p.expect(LParen)
		var args []Expr
		if !p.at(RParen) {
			args = append(args, p.parseExpr())
			for {
				if _, ok := p.accept(Comma); !ok {
					break
				}
				args = append(args, p.parseExpr())
			}
		}
		p.expect(RParen)
		p.expect(Semi)
		return &CallStmt{Pos: t.Pos, Name: name, DistArgs: distArgs, Args: args}
	case IDENT:
		p.next()
		if p.at(LBrack) {
			p.next()
			var idx []Expr
			idx = append(idx, p.parseExpr())
			for {
				if _, ok := p.accept(Comma); !ok {
					break
				}
				idx = append(idx, p.parseExpr())
			}
			p.expect(RBrack)
			p.expect(Assign)
			v := p.parseExpr()
			p.expect(Semi)
			return &StoreStmt{Pos: t.Pos, Array: t.Text, Indices: idx, Value: v}
		}
		p.expect(Assign)
		v := p.parseExpr()
		p.expect(Semi)
		return &AssignStmt{Pos: t.Pos, Name: t.Text, Value: v}
	default:
		p.fail("expected statement, found %s", t)
		return nil
	}
}

// parseOptDistArgs parses an optional "[proc(2), Column]" mapping
// instantiation list after a procedure name in call position.
func (p *Parser) parseOptDistArgs() []MapExpr {
	if !p.at(LBrack) {
		return nil
	}
	p.next()
	var out []MapExpr
	for {
		out = append(out, *p.parseMapBody())
		if _, ok := p.accept(Comma); !ok {
			break
		}
	}
	p.expect(RBrack)
	return out
}

// --- expressions (precedence climbing) ---

func (p *Parser) parseExpr() Expr { return p.parseBinary(precOr) }

// parseBinary parses operands joined by infix operators that bind at least
// as tightly as least, climbing the operator table's binding powers.
// Operators of one power group to the left. Comparisons do not chain: after
// one, a loop takes only looser operators, and as a nested loop may have
// stopped at a second comparison, no loop takes an operator tighter than
// the last it took. So "a < b < c" ends before the second "<".
func (p *Parser) parseBinary(least int) Expr {
	e, limit := p.parseUnary(), precUnary
	for {
		op, ok := spelled[infix][p.peek().Kind]
		prec := ops[op].prec
		if !ok || prec < least || prec > limit {
			return e
		}
		t := p.next()
		e = &BinExpr{Pos: t.Pos, Op: op, L: e, R: p.parseBinary(prec + 1)}
		if limit = prec; op.Comparison() {
			limit--
		}
	}
}

func (p *Parser) parseUnary() Expr {
	if op, ok := spelled[prefix][p.peek().Kind]; ok {
		t := p.next()
		return &UnExpr{Pos: t.Pos, Op: op, X: p.parseUnary()}
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() Expr {
	t := p.peek()
	if op, ok := spelled[call][t.Kind]; ok {
		p.next()
		p.expect(LParen)
		a := p.parseExpr()
		p.expect(Comma)
		b := p.parseExpr()
		p.expect(RParen)
		return &BinExpr{Pos: t.Pos, Op: op, L: a, R: b}
	}
	switch t.Kind {
	case INT:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			p.fail("bad integer literal %q", t.Text)
		}
		return &NumLit{Pos: t.Pos, Val: float64(v), IsInt: true}
	case REAL:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			p.fail("bad real literal %q", t.Text)
		}
		return &NumLit{Pos: t.Pos, Val: v}
	case KwTrue:
		p.next()
		return &BoolLit{Pos: t.Pos, Val: true}
	case KwFalse:
		p.next()
		return &BoolLit{Pos: t.Pos, Val: false}
	case LParen:
		p.next()
		e := p.parseExpr()
		p.expect(RParen)
		return e
	case KwMatrix, KwVector:
		p.next()
		base := TMatrix
		if t.Kind == KwVector {
			base = TVector
		}
		p.expect(LParen)
		dims := []Expr{p.parseExpr()}
		if base == TMatrix {
			p.expect(Comma)
			dims = append(dims, p.parseExpr())
		}
		p.expect(RParen)
		return &AllocExpr{Pos: t.Pos, Base: base, Dims: dims}
	case IDENT:
		p.next()
		switch p.peek().Kind {
		case LParen:
			p.next()
			var args []Expr
			if !p.at(RParen) {
				args = append(args, p.parseExpr())
				for {
					if _, ok := p.accept(Comma); !ok {
						break
					}
					args = append(args, p.parseExpr())
				}
			}
			p.expect(RParen)
			return &CallExpr{Pos: t.Pos, Name: t.Text, Args: args}
		case LBrack:
			// Either an index expression A[i,j] or an instantiated call
			// f[proc(2)](x). Try the call form first with backtracking.
			save := p.i
			if call := p.tryInstantiatedCall(t); call != nil {
				return call
			}
			p.i = save
			p.next() // consume '['
			var idx []Expr
			idx = append(idx, p.parseExpr())
			for {
				if _, ok := p.accept(Comma); !ok {
					break
				}
				idx = append(idx, p.parseExpr())
			}
			p.expect(RBrack)
			return &IndexExpr{Pos: t.Pos, Array: t.Text, Indices: idx}
		default:
			return &VarRef{Pos: t.Pos, Name: t.Text}
		}
	default:
		p.fail("expected expression, found %s", t)
		return nil
	}
}

// tryInstantiatedCall attempts to parse "[mapping, ...] ( args )" after an
// identifier; it returns nil (without reporting errors) when the input is not
// of that form, letting the caller re-parse as an index expression.
func (p *Parser) tryInstantiatedCall(name Token) (result Expr) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*SyntaxError); ok {
				result = nil
				return
			}
			panic(r)
		}
	}()
	p.expect(LBrack)
	var distArgs []MapExpr
	for {
		distArgs = append(distArgs, *p.parseMapBody())
		if _, ok := p.accept(Comma); !ok {
			break
		}
	}
	p.expect(RBrack)
	if !p.at(LParen) {
		return nil
	}
	p.next()
	var args []Expr
	if !p.at(RParen) {
		args = append(args, p.parseExpr())
		for {
			if _, ok := p.accept(Comma); !ok {
				break
			}
			args = append(args, p.parseExpr())
		}
	}
	p.expect(RParen)
	return &CallExpr{Pos: name.Pos, Name: name.Text, DistArgs: distArgs, Args: args}
}
