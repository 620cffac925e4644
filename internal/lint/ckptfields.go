package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CkptFields enforces the checkpoint contract: every field of a type
// returned by an exported Snapshot method must be written by the Snapshot
// closure (the method plus its transitive same-package callees) and read
// back by the paired Restore closure. "Added a counter to cache.Hierarchy,
// forgot the checkpoint" becomes a build failure instead of a golden-test
// miss three layers away. (That the MOSCKPT01 codec carries every field is
// not a lint: its encoder and decoder are one binfmt walk, and a
// reflection round-trip test in internal/binfmt fills every field.)
//
// Deliberately-omitted fields are declared per function with
//
//	//mosvet:ckptexempt <Field>[,<Field>...] <reason>
//
// in the doc comment of any function in the relevant closure. Unlike a
// line-level ignore, an exemption names the fields it covers: adding a new
// field later still fails the build. The same directive exempts receiver
// fields from the capture check.
//
// When the snapshot type lives in the same package as the receiver (the
// leaf state owners), the receiver's own fields must each be referenced by
// the Snapshot closure — configuration fields that are rebuilt by the
// constructor are exempted by name. Composite engines whose snapshot type
// is owned elsewhere (ckpt.MachineState) are covered by the field-write
// rule alone.
var CkptFields = &Analyzer{
	Name:      "ckptfields",
	Doc:       "require Snapshot to write and Restore to read every field of every snapshot type",
	RunModule: runCkptFields,
}

func runCkptFields(pkgs []*Package, cfg *Config) []Finding {
	var out []Finding
	for _, p := range pkgs {
		for _, c := range ckptContracts(p) {
			out = append(out, checkContract(p, c)...)
		}
	}
	return out
}

// ckptContract is one Snapshot/Restore pair discovered in a package.
type ckptContract struct {
	recv  *types.Named // receiver type
	state *types.Named // snapshot struct type
	snap  *ast.FuncDecl
	rest  *ast.FuncDecl // nil when missing
}

func ckptContracts(p *Package) []ckptContract {
	type recvFns struct{ snap, rest *ast.FuncDecl }
	byRecv := make(map[*types.Named]*recvFns)
	var order []*types.Named
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			if fd.Name.Name != "Snapshot" && fd.Name.Name != "Restore" {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := fn.Type().(*types.Signature)
			recv := namedOf(sig.Recv().Type())
			if recv == nil {
				continue
			}
			e := byRecv[recv]
			if e == nil {
				e = &recvFns{}
				byRecv[recv] = e
				order = append(order, recv)
			}
			if fd.Name.Name == "Snapshot" {
				e.snap = fd
			} else {
				e.rest = fd
			}
		}
	}
	var out []ckptContract
	for _, recv := range order {
		e := byRecv[recv]
		if e.snap == nil {
			continue // Restore alone is not a contract entry point
		}
		fn := p.Info.Defs[e.snap.Name].(*types.Func)
		sig := fn.Type().(*types.Signature)
		if sig.Results().Len() == 0 {
			continue
		}
		state := namedOf(sig.Results().At(0).Type())
		if state == nil {
			continue
		}
		if _, ok := state.Underlying().(*types.Struct); !ok {
			continue
		}
		out = append(out, ckptContract{recv: recv, state: state, snap: e.snap, rest: e.rest})
	}
	return out
}

func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func checkContract(p *Package, c ckptContract) []Finding {
	var out []Finding
	sFields, sByName := structFields(c.state)
	snapClosure := sameFnClosure(p, c.snap)

	if c.rest == nil {
		return []Finding{p.finding("ckptfields", c.snap.Name,
			"%s has Snapshot but no Restore — the checkpoint contract requires both", c.recv.Obj().Name())}
	}
	restClosure := sameFnClosure(p, c.rest)

	written := fieldWrites(p, snapClosure, c.state, sByName)
	if len(written) > 0 { // zero writes = a delegating wrapper, not a state owner
		exempt := exemptFields(snapClosure)
		for _, f := range sFields {
			if !written[f] && !exempt[f.Name()] {
				out = append(out, p.finding("ckptfields", c.snap.Name,
					"%s.Snapshot never writes %s.%s — restored state would see a zero value; write it or declare //mosvet:ckptexempt %s <reason>",
					c.recv.Obj().Name(), c.state.Obj().Name(), f.Name(), f.Name()))
			}
		}

		// Receiver capture: leaf state owners (snapshot type defined beside
		// the receiver) must reference every receiver field or exempt it.
		if c.state.Obj().Pkg() == c.recv.Obj().Pkg() {
			rFields, _ := structFields(c.recv)
			mentioned := fieldMentions(p, snapClosure, fieldSet(rFields))
			for _, f := range rFields {
				if !mentioned[f] && !exempt[f.Name()] {
					out = append(out, p.finding("ckptfields", c.snap.Name,
						"%s.Snapshot captures no state from receiver field %s.%s — snapshot it or declare //mosvet:ckptexempt %s <reason>",
						c.recv.Obj().Name(), c.recv.Obj().Name(), f.Name(), f.Name()))
				}
			}
		}
	}

	read := fieldMentions(p, restClosure, fieldSet(sFields))
	if len(read) > 0 {
		exempt := exemptFields(restClosure)
		for _, f := range sFields {
			if !read[f] && !exempt[f.Name()] {
				out = append(out, p.finding("ckptfields", c.rest.Name,
					"%s.Restore never reads %s.%s — the snapshot field is silently dropped; read it or declare //mosvet:ckptexempt %s <reason>",
					c.recv.Obj().Name(), c.state.Obj().Name(), f.Name(), f.Name()))
			}
		}
	}
	return out
}

// sameFnClosure returns root plus its transitive same-package callees in
// discovery order. Function literals inside the bodies are traversed (they
// run as part of the operation).
func sameFnClosure(p *Package, root *ast.FuncDecl) []*ast.FuncDecl {
	seen := map[*ast.FuncDecl]bool{root: true}
	out := []*ast.FuncDecl{root}
	for i := 0; i < len(out); i++ {
		ast.Inspect(out[i].Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(p.Info, call); fn != nil {
				if decl := p.funcDecl(fn); decl != nil && decl.Body != nil && !seen[decl] {
					seen[decl] = true
					out = append(out, decl)
				}
			}
			return true
		})
	}
	return out
}

// exemptFields unions the //mosvet:ckptexempt field lists declared on the
// closure's functions. (Reason enforcement happens in the directive pass.)
func exemptFields(closure []*ast.FuncDecl) map[string]bool {
	out := make(map[string]bool)
	for _, d := range closure {
		args := directiveArgs(d.Doc, "ckptexempt")
		if len(args) == 0 {
			continue
		}
		for _, f := range strings.Split(args[0], ",") {
			out[f] = true
		}
	}
	return out
}

func structFields(n *types.Named) ([]*types.Var, map[string]*types.Var) {
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	var fields []*types.Var
	byName := make(map[string]*types.Var, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		fields = append(fields, f)
		byName[f.Name()] = f
	}
	return fields, byName
}

func fieldSet(fields []*types.Var) map[*types.Var]bool {
	s := make(map[*types.Var]bool, len(fields))
	for _, f := range fields {
		s[f] = true
	}
	return s
}

// fieldWrites collects the fields of state written anywhere in the
// closure: keyed composite-literal entries, positional literals (which
// populate every field), and assignment targets (through index and deref
// chains).
func fieldWrites(p *Package, closure []*ast.FuncDecl, state *types.Named, byName map[string]*types.Var) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	mark := func(e ast.Expr) {
		if sel, ok := assignTargetField(e); ok {
			if s := p.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				if v, ok := s.Obj().(*types.Var); ok {
					if f := byName[v.Name()]; f == v {
						out[v] = true
					}
				}
			}
		}
	}
	for _, d := range closure {
		ast.Inspect(d.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if namedOf(p.Info.TypeOf(n)) != state {
					return true
				}
				if len(n.Elts) == 0 {
					return true
				}
				if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
					for _, f := range byName {
						out[f] = true
					}
					return true
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							if f := byName[id.Name]; f != nil {
								out[f] = true
							}
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					mark(lhs)
				}
			case *ast.IncDecStmt:
				mark(n.X)
			}
			return true
		})
	}
	return out
}

// assignTargetField unwraps an assignment target down to the field
// selector it writes through (st.F, st.F[i], (*st).F, …).
func assignTargetField(e ast.Expr) (*ast.SelectorExpr, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x, true
		default:
			return nil, false
		}
	}
}

// fieldMentions collects every field in the set referenced by any
// selector expression or keyed composite-literal entry in the closure.
func fieldMentions(p *Package, closure []*ast.FuncDecl, fields map[*types.Var]bool) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	for _, d := range closure {
		ast.Inspect(d.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if s := p.Info.Selections[n]; s != nil && s.Kind() == types.FieldVal {
					if v, ok := s.Obj().(*types.Var); ok && fields[v] {
						out[v] = true
					}
				}
			case *ast.KeyValueExpr:
				// Struct literal keys resolve to the field object in Uses
				// (&MachineState{HasClock: ...} mentions HasClock).
				if id, ok := n.Key.(*ast.Ident); ok {
					if v, ok := p.Info.Uses[id].(*types.Var); ok && fields[v] {
						out[v] = true
					}
				}
			}
			return true
		})
	}
	return out
}
