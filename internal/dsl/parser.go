package dsl

import (
	"fmt"
	"strconv"
	"strings"

	"datasynth/internal/schema"
	"datasynth/internal/table"
)

// Parse compiles DSL source into a schema. It checks syntax only: an
// undeclared endpoint type, an unknown dependency or a missing scale
// anchor parses fine. depgraph.Analyze runs schema.Validate, and every
// caller reaches it before using the schema — core.ValidateSchema at
// admission and registration, Engine.Generate before any task.
func Parse(src string) (*schema.Schema, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	return (&parser{toks: toks}).file()
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) take() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(t token, format string, args ...any) error {
	return fmt.Errorf("dsl:%d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokKind) (token, error) {
	t := p.take()
	if t.kind != k {
		return t, p.errf(t, "expected %v, found %v %q", k, t.kind, t.text)
	}
	return t, nil
}

func (p *parser) expectWord(text string) (token, error) {
	t := p.take()
	if t.kind != tokWord || t.text != text {
		return t, p.errf(t, "expected %q, found %q", text, t.text)
	}
	return t, nil
}

// word expects any word token.
func (p *parser) word() (token, error) {
	t := p.take()
	if t.kind != tokWord {
		return t, p.errf(t, "expected identifier, found %v", t.kind)
	}
	return t, nil
}

// file := "graph" IDENT "{" item* "}"
func (p *parser) file() (*schema.Schema, error) {
	if _, err := p.expectWord("graph"); err != nil {
		return nil, err
	}
	name, err := p.word()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	s := &schema.Schema{Name: name.text}
	for {
		t := p.peek()
		if t.kind == tokRBrace {
			p.take()
			break
		}
		if t.kind == tokEOF {
			return nil, p.errf(t, "unexpected end of file inside graph block")
		}
		switch t.text {
		case "seed":
			p.take()
			if _, err := p.expect(tokEquals); err != nil {
				return nil, err
			}
			v, err := p.word()
			if err != nil {
				return nil, err
			}
			seed, err := strconv.ParseUint(v.text, 10, 64)
			if err != nil {
				return nil, p.errf(v, "seed %q is not an unsigned integer", v.text)
			}
			s.Seed = seed
		case "node":
			n, err := p.node()
			if err != nil {
				return nil, err
			}
			s.Nodes = append(s.Nodes, *n)
		case "edge":
			e, err := p.edge()
			if err != nil {
				return nil, err
			}
			s.Edges = append(s.Edges, *e)
		default:
			return nil, p.errf(t, "expected 'node', 'edge' or 'seed', found %q", t.text)
		}
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, p.errf(t, "trailing input after graph block")
	}
	return s, nil
}

// node := "node" IDENT "{" ("count" "=" NUM | prop)* "}"
func (p *parser) node() (*schema.NodeType, error) {
	p.take() // "node"
	name, err := p.word()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	n := &schema.NodeType{Name: name.text}
	for {
		t := p.peek()
		if t.kind == tokRBrace {
			p.take()
			return n, nil
		}
		switch t.text {
		case "count":
			p.take()
			if _, err := p.expect(tokEquals); err != nil {
				return nil, err
			}
			v, err := p.word()
			if err != nil {
				return nil, err
			}
			c, err := strconv.ParseInt(v.text, 10, 64)
			if err != nil || c <= 0 {
				return nil, p.errf(v, "count %q must be a positive integer", v.text)
			}
			n.Count = c
		case "property":
			prop, err := p.property()
			if err != nil {
				return nil, err
			}
			n.Properties = append(n.Properties, *prop)
		default:
			return nil, p.errf(t, "expected 'count' or 'property' in node %s, found %q", n.Name, t.text)
		}
	}
}

// property := "property" IDENT ":" TYPE "=" genCall ["given" "(" deps ")"]
func (p *parser) property() (*schema.Property, error) {
	p.take() // "property"
	name, err := p.word()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokColon); err != nil {
		return nil, err
	}
	kindTok, err := p.word()
	if err != nil {
		return nil, err
	}
	kind, err := table.ParseValueKind(kindTok.text)
	if err != nil {
		return nil, p.errf(kindTok, "unknown property type %q", kindTok.text)
	}
	if _, err := p.expect(tokEquals); err != nil {
		return nil, err
	}
	gen, err := p.genCall()
	if err != nil {
		return nil, err
	}
	prop := &schema.Property{Name: name.text, Kind: kind, Generator: *gen}
	if p.peek().kind == tokWord && p.peek().text == "given" {
		p.take()
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		for {
			dep, err := p.word()
			if err != nil {
				return nil, err
			}
			prop.DependsOn = append(prop.DependsOn, dep.text)
			t := p.take()
			if t.kind == tokRParen {
				break
			}
			if t.kind != tokComma {
				return nil, p.errf(t, "expected ',' or ')' in dependency list")
			}
		}
	}
	return prop, nil
}

// genCall := IDENT ["(" [param ("," param)*] ")"]
func (p *parser) genCall() (*schema.GeneratorSpec, error) {
	name, err := p.word()
	if err != nil {
		return nil, err
	}
	g := &schema.GeneratorSpec{Name: name.text, Params: map[string]string{}}
	if p.peek().kind != tokLParen {
		return g, nil
	}
	p.take() // '('
	if p.peek().kind == tokRParen {
		p.take()
		return g, nil
	}
	for {
		key, err := p.word()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokEquals); err != nil {
			return nil, err
		}
		v := p.take()
		if v.kind != tokWord && v.kind != tokString {
			return nil, p.errf(v, "expected parameter value, found %v", v.kind)
		}
		if _, dup := g.Params[key.text]; dup {
			return nil, p.errf(key, "duplicate parameter %q", key.text)
		}
		g.Params[key.text] = v.text
		t := p.take()
		if t.kind == tokRParen {
			return g, nil
		}
		if t.kind != tokComma {
			return nil, p.errf(t, "expected ',' or ')' in parameter list")
		}
	}
}

// edge := "edge" IDENT ":" IDENT CARD IDENT "{" edgeItem* "}"
func (p *parser) edge() (*schema.EdgeType, error) {
	p.take() // "edge"
	name, err := p.word()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokColon); err != nil {
		return nil, err
	}
	tail, err := p.word()
	if err != nil {
		return nil, err
	}
	cardTok, err := p.word()
	if err != nil {
		return nil, err
	}
	card, err := schema.ParseCardinality(cardTok.text)
	if err != nil {
		return nil, p.errf(cardTok, "unknown cardinality %q (want 1-1, 1-* or *-*)", cardTok.text)
	}
	head, err := p.word()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	e := &schema.EdgeType{Name: name.text, Tail: tail.text, Head: head.text, Cardinality: card}
	for {
		t := p.peek()
		if t.kind == tokRBrace {
			p.take()
			return e, nil
		}
		switch t.text {
		case "structure":
			p.take()
			if _, err := p.expect(tokEquals); err != nil {
				return nil, err
			}
			g, err := p.genCall()
			if err != nil {
				return nil, err
			}
			e.Structure = *g
		case "count":
			p.take()
			if _, err := p.expect(tokEquals); err != nil {
				return nil, err
			}
			v, err := p.word()
			if err != nil {
				return nil, err
			}
			c, err := strconv.ParseInt(v.text, 10, 64)
			if err != nil || c <= 0 {
				return nil, p.errf(v, "count %q must be a positive integer", v.text)
			}
			e.Count = c
		case "correlate":
			if e.Correlation != nil {
				return nil, p.errf(t, "edge %s already has a correlation", e.Name)
			}
			corr, err := p.correlate()
			if err != nil {
				return nil, err
			}
			e.Correlation = corr
		case "property":
			prop, err := p.property()
			if err != nil {
				return nil, err
			}
			e.Properties = append(e.Properties, *prop)
		default:
			return nil, p.errf(t, "expected 'structure', 'count', 'correlate' or 'property' in edge %s, found %q", e.Name, t.text)
		}
	}
}

// correlate := "correlate" WORD ["with" WORD] "homophily" NUM ["fused"] ["passes" NUM]
// A monopartite correlation names one endpoint property; a bipartite
// one uses tail.X with head.Y. The trailing "fused" keyword requests
// the exact fused operator on 1-* edges.
func (p *parser) correlate() (*schema.Correlation, error) {
	p.take() // "correlate"
	first, err := p.word()
	if err != nil {
		return nil, err
	}
	c := &schema.Correlation{}
	if strings.HasPrefix(first.text, "tail.") {
		c.TailProperty = strings.TrimPrefix(first.text, "tail.")
		if _, err := p.expectWord("with"); err != nil {
			return nil, err
		}
		second, err := p.word()
		if err != nil {
			return nil, err
		}
		if !strings.HasPrefix(second.text, "head.") {
			return nil, p.errf(second, "expected head.<property>, found %q", second.text)
		}
		c.HeadProperty = strings.TrimPrefix(second.text, "head.")
	} else {
		c.Property = first.text
	}
	if _, err := p.expectWord("homophily"); err != nil {
		return nil, err
	}
	v, err := p.word()
	if err != nil {
		return nil, err
	}
	h, err := strconv.ParseFloat(v.text, 64)
	if err != nil {
		return nil, p.errf(v, "homophily %q is not a number", v.text)
	}
	c.Homophily = h
	for p.peek().kind == tokWord && (p.peek().text == "fused" || p.peek().text == "passes") {
		switch p.take().text {
		case "fused":
			c.Fused = true
		case "passes":
			v, err := p.word()
			if err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(v.text)
			if err != nil || n < 0 {
				return nil, p.errf(v, "passes %q must be a non-negative integer", v.text)
			}
			c.Passes = n
		}
	}
	return c, nil
}
