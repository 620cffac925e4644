package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the module-wide mutex acquisition graph over the
// serving packages and rejects three hazards: acquisition
// cycles (goroutine A takes mu1→mu2 while B takes mu2→mu1 — a deadlock that
// only fires under contention), blocking operations — file and network
// I/O, channel sends and receives, selects without a default, HTTP calls,
// sleeps — written directly under a held lock, and calls made under a lock
// into functions that transitively block (the registry head-of-line
// pattern: the critical section looks clean, the helper it calls does the
// file I/O). Every predict takes the registry read lock, so either kind of
// blocking turns one slow operation into head-of-line blocking for every
// client.
//
// Lock identity is structural: a mutex is named by the struct field or
// package-level variable it lives in (serve.JobManager.mu,
// registry.Registry.mu). Locally-scoped mutexes cannot participate in
// cross-function orderings and are tracked only for held-ness. Calls
// through function values and interfaces are unresolvable and skipped.
var LockOrder = &Analyzer{
	Name:      "lockorder",
	Doc:       "reject mutex acquisition cycles and blocking operations or transitively-blocking calls under locks across the serving packages",
	RunModule: runLockOrder,
}

func runLockOrder(pkgs []*Package, cfg *Config) []Finding {
	lo := &lockOrder{
		cfg:   cfg,
		fns:   make(map[*types.Func]*fnDecl),
		sums:  make(map[*types.Func]*fnSummary),
		edges: make(map[string]map[string]lockSite),
	}
	for _, p := range pkgs {
		if !pathIn(p.Path, cfg.LockOrderPackages) {
			continue
		}
		lo.scoped = append(lo.scoped, p)
		for _, file := range p.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					lo.fns[fn] = &fnDecl{p: p, decl: fd}
				}
			}
		}
	}
	for _, p := range lo.scoped {
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch n := n.(type) {
				case *ast.FuncDecl:
					body = n.Body
				case *ast.FuncLit:
					body = n.Body
				default:
					return true
				}
				if body != nil {
					s := &orderScan{lo: lo, p: p}
					s.stmts(body.List, nil)
				}
				return true // descend: FuncLits inside are their own scopes
			})
		}
	}
	lo.findCycles()
	return lo.findings
}

type fnDecl struct {
	p    *Package
	decl *ast.FuncDecl
}

// fnSummary is the transitive fact set for one function: every lock key it
// may acquire and whether any path through it performs a blocking
// operation (with the leaf operation's description).
type fnSummary struct {
	acq   map[string]bool
	block string // "" if no path blocks
}

type lockSite struct {
	p   *Package
	pos token.Pos
}

type lockOrder struct {
	cfg      *Config
	scoped   []*Package
	fns      map[*types.Func]*fnDecl
	sums     map[*types.Func]*fnSummary
	edges    map[string]map[string]lockSite // held key → acquired key → first site
	findings []Finding
}

// summary computes (memoized) the transitive acquisition set and blocking
// fact for a scoped function. Recursive call cycles see the partially
// computed summary — an under-approximation on the cycle itself, which is
// fine: a lock acquired on every path round a recursion still appears via
// the first pass through the body.
func (lo *lockOrder) summary(fn *types.Func) *fnSummary {
	if s, ok := lo.sums[fn]; ok {
		return s
	}
	s := &fnSummary{acq: make(map[string]bool)}
	lo.sums[fn] = s
	fd, ok := lo.fns[fn]
	if !ok {
		return s
	}
	var callees []*types.Func
	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// Literal bodies run whenever the value is invoked — often
			// deliberately after an unlock. Charging them to the enclosing
			// function would poison every callback-based release pattern.
			return false
		}
		if s.block == "" {
			s.block = blockingOp(fd.p.Info, n)
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if mutexCallKind(fd.p.Info, call) == lockAcquire {
			if k := lockKeyOf(fd.p, call); k != "" {
				s.acq[k] = true
			}
			return true
		}
		if callee := calleeFunc(fd.p.Info, call); callee != nil {
			if _, scoped := lo.fns[callee]; scoped && callee != fn {
				callees = append(callees, callee)
			}
		}
		return true
	})
	for _, c := range callees {
		cs := lo.summary(c)
		for k := range cs.acq {
			s.acq[k] = true
		}
		if s.block == "" && cs.block != "" {
			s.block = cs.block
		}
	}
	return s
}

func (lo *lockOrder) edge(from, to string, p *Package, pos token.Pos) {
	m := lo.edges[from]
	if m == nil {
		m = make(map[string]lockSite)
		lo.edges[from] = m
	}
	if _, ok := m[to]; !ok {
		m[to] = lockSite{p: p, pos: pos}
	}
}

// findCycles reports every edge that closes a cycle in the acquisition
// graph (a 2-cycle is an inconsistent pairwise ordering; longer cycles are
// circular waits). DFS over sorted keys keeps the report deterministic.
func (lo *lockOrder) findCycles() {
	keys := make([]string, 0, len(lo.edges))
	for k := range lo.edges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var path []string
	var visit func(u string)
	visit = func(u string) {
		color[u] = gray
		path = append(path, u)
		tos := make([]string, 0, len(lo.edges[u]))
		for to := range lo.edges[u] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			switch color[to] {
			case white:
				visit(to)
			case gray:
				site := lo.edges[u][to]
				i := 0
				for ; i < len(path); i++ {
					if path[i] == to {
						break
					}
				}
				cycle := append(append([]string{}, path[i:]...), to)
				lo.findings = append(lo.findings, Finding{
					Check: "lockorder",
					Pos:   site.p.position(site.pos),
					Message: fmt.Sprintf("lock ordering cycle: %s — acquiring %s here while %s is held closes the cycle",
						strings.Join(cycle, " → "), to, u),
				})
			}
		}
		path = path[:len(path)-1]
		color[u] = black
	}
	for _, k := range keys {
		if color[k] == white {
			visit(k)
		}
	}
}

// orderScan walks one function linearly, tracking the ordered list of held
// locks. Branch bodies inherit a copy of the held list; acquisitions inside
// a branch do not persist past it, and an unlock inside a branch does not
// clear the state after it (conservative — suppress with a reason if a
// legitimate pattern trips this).
type orderScan struct {
	lo *lockOrder
	p  *Package
}

// stmts scans a statement list under held — lock keys in acquisition order,
// "" for an unidentified local — and returns the held list after it.
func (s *orderScan) stmts(list []ast.Stmt, held []string) []string {
	for _, stmt := range list {
		switch st := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
				switch mutexCallKind(s.p.Info, call) {
				case lockAcquire:
					held = s.acquire(call, held)
					continue
				case lockRelease:
					held = release(held, lockKeyOf(s.p, call))
					continue
				}
			}
		case *ast.DeferStmt:
			if mutexCallKind(s.p.Info, st.Call) == lockRelease {
				continue // held to end of function; later statements stay checked
			}
		case *ast.BlockStmt:
			held = s.stmts(st.List, held)
			continue
		case *ast.LabeledStmt:
			held = s.stmts([]ast.Stmt{st.Stmt}, held)
			continue
		case *ast.IfStmt:
			s.check(held, st.Init, st.Cond)
			s.stmts(st.Body.List, cloneHeld(held))
			if st.Else != nil {
				s.stmts([]ast.Stmt{st.Else}, cloneHeld(held))
			}
			continue
		case *ast.ForStmt:
			s.check(held, st.Init, st.Cond, st.Post)
			s.stmts(st.Body.List, cloneHeld(held))
			continue
		case *ast.RangeStmt:
			s.op(held, st)
			s.check(held, st.X)
			s.stmts(st.Body.List, cloneHeld(held))
			continue
		case *ast.SwitchStmt:
			s.check(held, st.Init, st.Tag)
			s.caseBodies(st.Body, held)
			continue
		case *ast.TypeSwitchStmt:
			s.check(held, st.Init, st.Assign)
			s.caseBodies(st.Body, held)
			continue
		case *ast.SelectStmt:
			// The select itself is the blocking point; its comm operations
			// only proceed when ready.
			s.op(held, st)
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					s.stmts(cc.Body, cloneHeld(held))
				}
			}
			continue
		}
		s.check(held, stmt)
	}
	return held
}

func (s *orderScan) caseBodies(body *ast.BlockStmt, held []string) {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			s.stmts(cc.Body, cloneHeld(held))
		}
	}
}

// acquire records ordering edges from every held lock to the newly
// acquired one and flags recursive acquisition of the same key.
func (s *orderScan) acquire(call *ast.CallExpr, held []string) []string {
	k := lockKeyOf(s.p, call)
	for _, h := range held {
		if h == "" || k == "" {
			continue
		}
		if h == k {
			s.lo.findings = append(s.lo.findings, s.p.finding("lockorder", call,
				"recursive acquisition of %s — it is already held on this path", k))
			continue
		}
		s.lo.edge(h, k, s.p, call.Pos())
	}
	return append(cloneHeld(held), k)
}

// op flags n when it is itself a blocking operation performed under a held
// lock.
func (s *orderScan) op(held []string, n ast.Node) {
	if len(held) == 0 {
		return
	}
	if desc := blockingOp(s.p.Info, n); desc != "" {
		s.lo.findings = append(s.lo.findings, s.p.finding("lockorder", n,
			"%s while %s is held — move it outside the critical section or copy the state out first", desc, heldName(held)))
	}
}

// check inspects nodes evaluated under the held locks (skipping function
// literals, whose bodies run later): blocking operations written there are
// flagged directly, and calls into scoped module functions are charged
// their transitive summaries — transitive acquisitions become ordering
// edges, transitive blocking becomes a finding at the call site.
func (s *orderScan) check(held []string, nodes ...ast.Node) {
	if len(held) == 0 {
		return
	}
	for _, n := range nodes {
		if n == nil {
			continue
		}
		ast.Inspect(n, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			s.op(held, n)
			if call, ok := n.(*ast.CallExpr); ok {
				s.call(call, held)
			}
			return true
		})
	}
}

// call charges a call into a scoped module function against the held
// locks.
func (s *orderScan) call(call *ast.CallExpr, held []string) {
	callee := calleeFunc(s.p.Info, call)
	if callee == nil {
		return
	}
	if _, scoped := s.lo.fns[callee]; !scoped {
		return
	}
	sum := s.lo.summary(callee)
	acq := make([]string, 0, len(sum.acq))
	for k := range sum.acq {
		acq = append(acq, k)
	}
	sort.Strings(acq)
	for _, k := range acq {
		for _, h := range held {
			if h == "" {
				continue
			}
			if h == k {
				s.lo.findings = append(s.lo.findings, s.p.finding("lockorder", call,
					"call to %s may acquire %s, which is already held — self-deadlock on a non-reentrant mutex", callee.Name(), k))
				continue
			}
			s.lo.edge(h, k, s.p, call.Pos())
		}
	}
	if sum.block != "" {
		s.lo.findings = append(s.lo.findings, s.p.finding("lockorder", call,
			"call to %s while %s is held — it transitively performs %s; restructure so the lock is released first", callee.Name(), heldName(held), sum.block))
	}
}

func heldName(held []string) string {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] != "" {
			return held[i]
		}
	}
	return "a locally-scoped mutex"
}

func cloneHeld(held []string) []string {
	return append([]string(nil), held...)
}

// release pops the most recent matching key (or the most recent entry when
// the key is unidentified).
func release(held []string, k string) []string {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == k {
			return append(cloneHeld(held[:i]), held[i+1:]...)
		}
	}
	if len(held) > 0 && k == "" {
		return cloneHeld(held[:len(held)-1])
	}
	return held
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

type mutexCall int

const (
	notMutex mutexCall = iota
	lockAcquire
	lockRelease
)

// mutexCallKind classifies expressions like mu.Lock() / r.mu.RUnlock().
func mutexCallKind(info *types.Info, e ast.Expr) mutexCall {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return notMutex
	}
	fn := calleeFunc(info, call)
	if fn == nil || funcPkgPath(fn) != "sync" || isPkgLevelFunc(fn) {
		return notMutex
	}
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		return lockAcquire
	case "Unlock", "RUnlock":
		return lockRelease
	}
	return notMutex
}

// osBlocking are the package-level os functions that hit the filesystem.
var osBlocking = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "Rename": true, "Remove": true,
	"RemoveAll": true, "Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"ReadDir": true, "Stat": true, "Lstat": true, "Chmod": true,
	"Chtimes": true, "Truncate": true, "Symlink": true, "Link": true,
}

// ioBlocking are the io helpers that drive reads/writes to completion.
var ioBlocking = map[string]bool{
	"Copy": true, "CopyN": true, "CopyBuffer": true, "ReadAll": true,
	"ReadFull": true, "WriteString": true,
}

// blockingOp names the blocking operation n performs by itself — a channel
// send or receive, a select without a default, a range over a channel, or a
// blockingCall — or returns "".
func blockingOp(info *types.Info, n ast.Node) string {
	switch n := n.(type) {
	case *ast.SendStmt:
		return "a channel send"
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "a channel receive"
		}
	case *ast.SelectStmt:
		if !selectHasDefault(n) {
			return "a blocking select"
		}
	case *ast.RangeStmt:
		if t := info.TypeOf(n.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return "a range over a channel"
			}
		}
	case *ast.CallExpr:
		return blockingCall(info, n)
	}
	return ""
}

// blockingCall classifies a call as blocking and names it, or returns "".
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil {
		return ""
	}
	pkg, name := funcPkgPath(fn), fn.Name()
	switch pkg {
	case "os":
		if isPkgLevelFunc(fn) {
			if osBlocking[name] {
				return "file I/O (os." + name + ")"
			}
			return ""
		}
		// Methods on *os.File and friends: reads, writes, syncs.
		switch name {
		case "Read", "ReadAt", "Write", "WriteAt", "WriteString", "Sync", "Close", "Readdir", "ReadDir", "Seek", "Truncate":
			return "file I/O ((*os.File)." + name + ")"
		}
	case "io":
		if isPkgLevelFunc(fn) && ioBlocking[name] {
			return "I/O (io." + name + ")"
		}
	case "net/http":
		return "HTTP call (http." + name + ")"
	case "net":
		return "network call (net." + name + ")"
	case "os/exec":
		return "subprocess (exec." + name + ")"
	case "time":
		if name == "Sleep" {
			return "sleep (time.Sleep)"
		}
	case "bufio":
		if !isPkgLevelFunc(fn) && name == "Flush" {
			return "buffered flush (bufio." + name + ")"
		}
	}
	return ""
}

// lockKeyOf names the mutex a Lock/Unlock call operates on: the struct
// field ("pkg.Type.field") or package-level variable ("pkg.var") holding
// it. Locals, parameters, and map/interface-typed receivers return "".
func lockKeyOf(p *Package, call *ast.CallExpr) string {
	fun, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	recv := ast.Unparen(fun.X)
	switch r := recv.(type) {
	case *ast.SelectorExpr:
		sel := p.Info.Selections[r]
		if sel == nil || sel.Kind() != types.FieldVal {
			return ""
		}
		t := sel.Recv()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return ""
		}
		return fmt.Sprintf("%s.%s.%s", named.Obj().Pkg().Name(), named.Obj().Name(), r.Sel.Name)
	case *ast.Ident:
		if v, ok := p.Info.Uses[r].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return fmt.Sprintf("%s.%s", v.Pkg().Name(), v.Name())
		}
	case *ast.IndexExpr:
		// Mutexes in slices/maps share one key per container element type —
		// too ambiguous to order; track held-ness only.
		return ""
	}
	return ""
}
