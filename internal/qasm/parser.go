package qasm

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"flatdd/internal/circuit"
)

// Parse parses OpenQASM 2.0 source into a circuit.
func Parse(src string) (c *circuit.Circuit, err error) {
	defer func() {
		if r := recover(); r != nil {
			if se, ok := r.(errSyntax); ok {
				c, err = nil, se
				return
			}
			panic(r)
		}
	}()
	p := &parser{
		toks:  tokenize(src),
		regs:  make(map[string]qreg),
		cregs: make(map[string]int),
		defs:  make(map[string]*gateDef),
	}
	p.parseProgram()
	if p.circ == nil {
		p.circ = circuit.New("qasm", p.nQubits)
	}
	return p.circ, nil
}

// ParseFile reads and parses one .qasm file.
func ParseFile(path string) (*circuit.Circuit, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("qasm: %w", err)
	}
	c, err := Parse(string(data))
	if err != nil {
		return nil, err
	}
	name := filepath.Base(path)
	c.Name = name
	return c, nil
}

type qreg struct {
	offset int
	size   int
}

type gateDef struct {
	name   string
	params []string
	qargs  []string
	body   []gateStmt
	line   int
}

type gateStmt struct {
	name   string
	params []exprNode
	qargs  []string // names from the enclosing definition's qargs
	line   int
}

type parser struct {
	toks []token
	pos  int

	regs    map[string]qreg
	nQubits int
	cregs   map[string]int
	defs    map[string]*gateDef

	circ     *circuit.Circuit
	measures int
	depth    int // gate-expansion recursion depth
}

// maxExpandDepth bounds custom-gate macro expansion; definitions cannot be
// legitimately nested deeper (a definition can only use earlier gates, so
// depth is bounded by the definition count — but malformed input could
// still recurse through itself).
const maxExpandDepth = 256

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errorf(line int, format string, args ...any) {
	panic(errSyntax{line, fmt.Sprintf(format, args...)})
}

func (p *parser) expectSymbol(s string) token {
	t := p.advance()
	if t.kind != tokSymbol || t.text != s {
		p.errorf(t.line, "expected %q, found %s", s, t)
	}
	return t
}

func (p *parser) expectIdent() token {
	t := p.advance()
	if t.kind != tokIdent {
		p.errorf(t.line, "expected identifier, found %s", t)
	}
	return t
}

func (p *parser) expectNumber() token {
	t := p.advance()
	if t.kind != tokNumber {
		p.errorf(t.line, "expected number, found %s", t)
	}
	return t
}

func (p *parser) parseProgram() {
	for {
		t := p.cur()
		if t.kind == tokEOF {
			return
		}
		if t.kind != tokIdent {
			p.errorf(t.line, "expected statement, found %s", t)
		}
		switch t.text {
		case "OPENQASM":
			p.advance()
			p.expectNumber()
			p.expectSymbol(";")
		case "include":
			p.advance()
			inc := p.advance()
			if inc.kind != tokString {
				p.errorf(inc.line, "expected include file name, found %s", inc)
			}
			// qelib1.inc gates are built in; other includes are ignored.
			p.expectSymbol(";")
		case "qreg":
			p.parseQreg()
		case "creg":
			p.parseCreg()
		case "gate":
			p.parseGateDef()
		case "barrier":
			p.advance()
			for p.cur().kind != tokEOF && !(p.cur().kind == tokSymbol && p.cur().text == ";") {
				p.advance()
			}
			p.expectSymbol(";")
		case "measure":
			p.parseMeasure()
		case "opaque", "if", "reset":
			p.errorf(t.line, "%q statements are not supported", t.text)
		default:
			p.parseApplication()
		}
	}
}

func (p *parser) parseQreg() {
	kw := p.advance()
	name := p.expectIdent()
	p.expectSymbol("[")
	size := p.expectNumber()
	p.expectSymbol("]")
	p.expectSymbol(";")
	if p.circ != nil {
		p.errorf(kw.line, "qreg %s declared after the first gate", name.text)
	}
	if _, ok := p.regs[name.text]; ok {
		p.errorf(name.line, "qreg %s redeclared", name.text)
	}
	n := atoiTok(p, size)
	if n < 1 {
		p.errorf(size.line, "qreg %s has size %d", name.text, n)
	}
	p.regs[name.text] = qreg{offset: p.nQubits, size: n}
	p.nQubits += n
}

func (p *parser) parseCreg() {
	p.advance()
	name := p.expectIdent()
	p.expectSymbol("[")
	size := p.expectNumber()
	p.expectSymbol("]")
	p.expectSymbol(";")
	p.cregs[name.text] = atoiTok(p, size)
}

func atoiTok(p *parser, t token) int {
	n := 0
	for _, c := range t.text {
		if c < '0' || c > '9' {
			p.errorf(t.line, "expected integer, found %q", t.text)
		}
		n = n*10 + int(c-'0')
		if n > 1<<30 {
			p.errorf(t.line, "integer %q too large", t.text)
		}
	}
	return n
}

// parseGateDef parses `gate name(p1,p2) q1,q2 { ... }`.
func (p *parser) parseGateDef() {
	kw := p.advance()
	name := p.expectIdent()
	if _, ok := p.defs[name.text]; ok {
		p.errorf(name.line, "gate %s redefined", name.text)
	}
	def := &gateDef{name: name.text, line: kw.line}
	if p.cur().kind == tokSymbol && p.cur().text == "(" {
		p.advance()
		if !(p.cur().kind == tokSymbol && p.cur().text == ")") {
			for {
				def.params = append(def.params, p.expectIdent().text)
				if p.cur().kind == tokSymbol && p.cur().text == "," {
					p.advance()
					continue
				}
				break
			}
		}
		p.expectSymbol(")")
	}
	for {
		def.qargs = append(def.qargs, p.expectIdent().text)
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.advance()
			continue
		}
		break
	}
	p.expectSymbol("{")
	for !(p.cur().kind == tokSymbol && p.cur().text == "}") {
		if p.cur().kind == tokEOF {
			p.errorf(kw.line, "unterminated gate body for %s", name.text)
		}
		if p.cur().kind == tokIdent && p.cur().text == "barrier" {
			for !(p.cur().kind == tokSymbol && p.cur().text == ";") {
				p.advance()
			}
			p.advance()
			continue
		}
		def.body = append(def.body, p.parseGateStmt(def))
	}
	p.expectSymbol("}")
	p.defs[name.text] = def
}

// parseGateStmt parses one application inside a gate body.
func (p *parser) parseGateStmt(def *gateDef) gateStmt {
	name := p.expectIdent()
	st := gateStmt{name: name.text, line: name.line}
	if p.cur().kind == tokSymbol && p.cur().text == "(" {
		p.advance()
		if !(p.cur().kind == tokSymbol && p.cur().text == ")") {
			for {
				st.params = append(st.params, p.parseExpr(def.params))
				if p.cur().kind == tokSymbol && p.cur().text == "," {
					p.advance()
					continue
				}
				break
			}
		}
		p.expectSymbol(")")
	}
	for {
		q := p.expectIdent()
		found := false
		for _, a := range def.qargs {
			if a == q.text {
				found = true
				break
			}
		}
		if !found {
			p.errorf(q.line, "unknown qubit argument %s in gate %s", q.text, def.name)
		}
		st.qargs = append(st.qargs, q.text)
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.advance()
			continue
		}
		break
	}
	p.expectSymbol(";")
	return st
}

func (p *parser) parseMeasure() {
	p.advance()
	p.parseQubitArg() // side effect: validates the register reference
	p.expectSymbol("->")
	name := p.expectIdent()
	if _, ok := p.cregs[name.text]; !ok {
		p.errorf(name.line, "unknown creg %s", name.text)
	}
	if p.cur().kind == tokSymbol && p.cur().text == "[" {
		p.advance()
		p.expectNumber()
		p.expectSymbol("]")
	}
	p.expectSymbol(";")
	p.measures++
}

// qubitArg is either one concrete qubit or a whole register (broadcast).
type qubitArg struct {
	reg   qreg
	index int // -1 for whole register
	line  int
}

func (p *parser) parseQubitArg() qubitArg {
	name := p.expectIdent()
	r, ok := p.regs[name.text]
	if !ok {
		p.errorf(name.line, "unknown qreg %s", name.text)
	}
	arg := qubitArg{reg: r, index: -1, line: name.line}
	if p.cur().kind == tokSymbol && p.cur().text == "[" {
		p.advance()
		idx := p.expectNumber()
		p.expectSymbol("]")
		i := atoiTok(p, idx)
		if i >= r.size {
			p.errorf(idx.line, "index %d out of range for qreg %s[%d]", i, name.text, r.size)
		}
		arg.index = i
	}
	return arg
}

// parseApplication parses a top-level gate application, resolving
// broadcast over whole registers.
func (p *parser) parseApplication() {
	name := p.expectIdent()
	var params []float64
	if p.cur().kind == tokSymbol && p.cur().text == "(" {
		p.advance()
		if !(p.cur().kind == tokSymbol && p.cur().text == ")") {
			for {
				e := p.parseExpr(nil)
				params = append(params, e.eval(p, nil))
				if p.cur().kind == tokSymbol && p.cur().text == "," {
					p.advance()
					continue
				}
				break
			}
		}
		p.expectSymbol(")")
	}
	var args []qubitArg
	for {
		args = append(args, p.parseQubitArg())
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.advance()
			continue
		}
		break
	}
	p.expectSymbol(";")

	if p.circ == nil {
		p.circ = circuit.New("qasm", p.nQubits)
	}

	// Broadcast: every whole-register argument must have the same size.
	bsize := 1
	for _, a := range args {
		if a.index < 0 {
			if bsize != 1 && bsize != a.reg.size {
				p.errorf(a.line, "mismatched register sizes in broadcast")
			}
			bsize = a.reg.size
		}
	}
	for k := 0; k < bsize; k++ {
		qubits := make([]int, len(args))
		for i, a := range args {
			if a.index < 0 {
				qubits[i] = a.reg.offset + k
			} else {
				qubits[i] = a.reg.offset + a.index
			}
		}
		p.applyNamed(name.text, params, qubits, name.line)
	}
}

// applyNamed resolves a gate name against the builtin set or a custom
// definition and appends the result to the circuit.
func (p *parser) applyNamed(name string, params []float64, qubits []int, line int) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxExpandDepth {
		p.errorf(line, "gate expansion too deep (recursive definition of %s?)", name)
	}
	if gs, ok := builtinGate(name, params, qubits); ok {
		for i := range gs {
			if err := gs[i].Validate(p.circ.Qubits); err != nil {
				p.errorf(line, "%v", err)
			}
		}
		p.circ.Append(gs...)
		return
	}
	def, ok := p.defs[name]
	if !ok {
		p.errorf(line, "unknown gate %s", name)
	}
	if len(params) != len(def.params) {
		p.errorf(line, "gate %s expects %d parameters, got %d", name, len(def.params), len(params))
	}
	if len(qubits) != len(def.qargs) {
		p.errorf(line, "gate %s expects %d qubits, got %d", name, len(def.qargs), len(qubits))
	}
	env := make(map[string]float64, len(params))
	for i, pn := range def.params {
		env[pn] = params[i]
	}
	qmap := make(map[string]int, len(qubits))
	for i, qn := range def.qargs {
		qmap[qn] = qubits[i]
	}
	for _, st := range def.body {
		subParams := make([]float64, len(st.params))
		for i, e := range st.params {
			subParams[i] = e.eval(p, env)
		}
		subQubits := make([]int, len(st.qargs))
		for i, qn := range st.qargs {
			subQubits[i] = qmap[qn]
		}
		p.applyNamed(st.name, subParams, subQubits, st.line)
	}
}

// builtinGate maps qelib1 (plus the OpenQASM builtins U and CX) onto the
// circuit gate library. It returns false for unknown names.
func builtinGate(name string, params []float64, qubits []int) ([]circuit.Gate, bool) {
	need := func(np, nq int) bool { return len(params) == np && len(qubits) == nq }
	switch name {
	case "U", "u", "u3":
		if need(3, 1) {
			return []circuit.Gate{circuit.U3(params[0], params[1], params[2], qubits[0])}, true
		}
	case "u2":
		if need(2, 1) {
			return []circuit.Gate{circuit.U2(params[0], params[1], qubits[0])}, true
		}
	case "u1", "p", "phase":
		if need(1, 1) {
			return []circuit.Gate{circuit.P(params[0], qubits[0])}, true
		}
	case "CX", "cx":
		if need(0, 2) {
			return []circuit.Gate{circuit.CX(qubits[0], qubits[1])}, true
		}
	case "id":
		if need(0, 1) {
			return []circuit.Gate{circuit.I(qubits[0])}, true
		}
	case "x":
		if need(0, 1) {
			return []circuit.Gate{circuit.X(qubits[0])}, true
		}
	case "y":
		if need(0, 1) {
			return []circuit.Gate{circuit.Y(qubits[0])}, true
		}
	case "z":
		if need(0, 1) {
			return []circuit.Gate{circuit.Z(qubits[0])}, true
		}
	case "h":
		if need(0, 1) {
			return []circuit.Gate{circuit.H(qubits[0])}, true
		}
	case "s":
		if need(0, 1) {
			return []circuit.Gate{circuit.S(qubits[0])}, true
		}
	case "sdg":
		if need(0, 1) {
			return []circuit.Gate{circuit.Sdg(qubits[0])}, true
		}
	case "t":
		if need(0, 1) {
			return []circuit.Gate{circuit.T(qubits[0])}, true
		}
	case "tdg":
		if need(0, 1) {
			return []circuit.Gate{circuit.Tdg(qubits[0])}, true
		}
	case "sx":
		if need(0, 1) {
			return []circuit.Gate{circuit.SX(qubits[0])}, true
		}
	case "sxdg":
		if need(0, 1) {
			return []circuit.Gate{circuit.SXdg(qubits[0])}, true
		}
	case "rx":
		if need(1, 1) {
			return []circuit.Gate{circuit.RX(params[0], qubits[0])}, true
		}
	case "ry":
		if need(1, 1) {
			return []circuit.Gate{circuit.RY(params[0], qubits[0])}, true
		}
	case "rz":
		if need(1, 1) {
			return []circuit.Gate{circuit.RZ(params[0], qubits[0])}, true
		}
	case "cy":
		if need(0, 2) {
			return []circuit.Gate{circuit.CY(qubits[0], qubits[1])}, true
		}
	case "cz":
		if need(0, 2) {
			return []circuit.Gate{circuit.CZ(qubits[0], qubits[1])}, true
		}
	case "ch":
		if need(0, 2) {
			return []circuit.Gate{circuit.CH(qubits[0], qubits[1])}, true
		}
	case "crx":
		if need(1, 2) {
			return []circuit.Gate{circuit.CRX(params[0], qubits[0], qubits[1])}, true
		}
	case "cry":
		if need(1, 2) {
			return []circuit.Gate{circuit.CRY(params[0], qubits[0], qubits[1])}, true
		}
	case "crz":
		if need(1, 2) {
			return []circuit.Gate{circuit.CRZ(params[0], qubits[0], qubits[1])}, true
		}
	case "cu1", "cp":
		if need(1, 2) {
			return []circuit.Gate{circuit.CP(params[0], qubits[0], qubits[1])}, true
		}
	case "cu3":
		if need(3, 2) {
			return []circuit.Gate{circuit.CU3(params[0], params[1], params[2], qubits[0], qubits[1])}, true
		}
	case "ccx":
		if need(0, 3) {
			return []circuit.Gate{circuit.CCX(qubits[0], qubits[1], qubits[2])}, true
		}
	case "ccz":
		if need(0, 3) {
			return []circuit.Gate{circuit.CCZ(qubits[0], qubits[1], qubits[2])}, true
		}
	case "swap":
		if need(0, 2) {
			return []circuit.Gate{circuit.SWAP(qubits[0], qubits[1])}, true
		}
	case "iswap":
		if need(0, 2) {
			return []circuit.Gate{circuit.ISwap(qubits[0], qubits[1])}, true
		}
	case "cswap":
		if need(0, 3) {
			return circuit.CSwap(qubits[0], qubits[1], qubits[2]), true
		}
	case "rzz":
		if need(1, 2) {
			return []circuit.Gate{circuit.RZZ(params[0], qubits[0], qubits[1])}, true
		}
	}
	return nil, false
}

// Expression AST.

type exprNode interface {
	eval(p *parser, env map[string]float64) float64
}

type numNode float64

func (n numNode) eval(*parser, map[string]float64) float64 { return float64(n) }

type identNode struct {
	name string
	line int
}

func (n identNode) eval(p *parser, env map[string]float64) float64 {
	if n.name == "pi" {
		return math.Pi
	}
	if v, ok := env[n.name]; ok {
		return v
	}
	p.errorf(n.line, "unknown parameter %s", n.name)
	return 0
}

type unaryNode struct {
	op string
	x  exprNode
}

func (n unaryNode) eval(p *parser, env map[string]float64) float64 {
	v := n.x.eval(p, env)
	if n.op == "-" {
		return -v
	}
	return v
}

type binNode struct {
	op   string
	l, r exprNode
	line int
}

func (n binNode) eval(p *parser, env map[string]float64) float64 {
	a := n.l.eval(p, env)
	b := n.r.eval(p, env)
	switch n.op {
	case "+":
		return a + b
	case "-":
		return a - b
	case "*":
		return a * b
	case "/":
		if b == 0 {
			p.errorf(n.line, "division by zero in parameter expression")
		}
		return a / b
	case "^":
		return math.Pow(a, b)
	}
	p.errorf(n.line, "bad operator %q", n.op)
	return 0
}

type callNode struct {
	fn   string
	x    exprNode
	line int
}

func (n callNode) eval(p *parser, env map[string]float64) float64 {
	v := n.x.eval(p, env)
	switch n.fn {
	case "sin":
		return math.Sin(v)
	case "cos":
		return math.Cos(v)
	case "tan":
		return math.Tan(v)
	case "exp":
		return math.Exp(v)
	case "ln":
		return math.Log(v)
	case "sqrt":
		return math.Sqrt(v)
	}
	p.errorf(n.line, "unknown function %s", n.fn)
	return 0
}

// parseExpr parses an additive expression. knownParams lists gate-parameter
// names valid as identifiers (nil at the top level, where only pi is
// allowed; evaluation catches violations).
func (p *parser) parseExpr(knownParams []string) exprNode {
	left := p.parseTerm(knownParams)
	for p.cur().kind == tokSymbol && (p.cur().text == "+" || p.cur().text == "-") {
		op := p.advance()
		right := p.parseTerm(knownParams)
		left = binNode{op.text, left, right, op.line}
	}
	return left
}

func (p *parser) parseTerm(knownParams []string) exprNode {
	left := p.parsePow(knownParams)
	for p.cur().kind == tokSymbol && (p.cur().text == "*" || p.cur().text == "/") {
		op := p.advance()
		right := p.parsePow(knownParams)
		left = binNode{op.text, left, right, op.line}
	}
	return left
}

func (p *parser) parsePow(knownParams []string) exprNode {
	left := p.parseUnary(knownParams)
	if p.cur().kind == tokSymbol && p.cur().text == "^" {
		op := p.advance()
		right := p.parsePow(knownParams) // right associative
		left = binNode{"^", left, right, op.line}
	}
	return left
}

func (p *parser) parseUnary(knownParams []string) exprNode {
	if p.cur().kind == tokSymbol && (p.cur().text == "-" || p.cur().text == "+") {
		op := p.advance()
		return unaryNode{op.text, p.parseUnary(knownParams)}
	}
	return p.parseAtom(knownParams)
}

func (p *parser) parseAtom(knownParams []string) exprNode {
	t := p.advance()
	switch t.kind {
	case tokNumber:
		var v float64
		if _, err := fmt.Sscanf(t.text, "%g", &v); err != nil {
			p.errorf(t.line, "bad number %q", t.text)
		}
		return numNode(v)
	case tokIdent:
		if p.cur().kind == tokSymbol && p.cur().text == "(" {
			p.advance()
			arg := p.parseExpr(knownParams)
			p.expectSymbol(")")
			return callNode{t.text, arg, t.line}
		}
		return identNode{t.text, t.line}
	case tokSymbol:
		if t.text == "(" {
			e := p.parseExpr(knownParams)
			p.expectSymbol(")")
			return e
		}
	}
	p.errorf(t.line, "expected expression, found %s", t)
	return nil
}
