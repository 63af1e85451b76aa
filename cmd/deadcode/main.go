// Command deadcode enforces the repository's reachability rule: a
// package-level function, method, type, variable or constant under
// internal/ exists only if a non-test file of one of the given modules
// reaches it.
//
//	deadcode -allow cmd/deadcode/allow.txt . bench
//
// Every argument is a module directory; the first owns internal/. All
// non-test files of every module are type-checked in one universe (stdlib
// from source, module packages by module-path prefix, so nothing is
// downloaded or executed). A use inside a declaration under internal/ is an
// edge from that declaration; a use anywhere else — cmd/, the facade, the
// second module, an init function — makes its target a root. A method is
// also reached from its receiver type when the type satisfies an interface
// the loaded files mention, import, or pass an argument to. What the
// transitive closure does not reach is printed, one symbol per line, and the
// exit status is 1.
//
// Each line of the allowlist is "<symbol> <reason>"; the symbol is reported
// as if reached. A line without a reason, or naming a symbol that does not
// exist or is reached without the line, is stale and fails the run.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	allow := flag.String("allow", "", "allowlist file: one \"<symbol> <reason>\" per line")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: deadcode [-allow file] <module dir> [<module dir>...]")
		os.Exit(2)
	}
	n, err := run(os.Stdout, *allow, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	if n > 0 {
		os.Exit(1)
	}
}

// run writes one line per finding (unreached symbol or stale allowlist
// entry) to w and returns how many it wrote.
func run(w io.Writer, allowFile string, moduleDirs []string) (int, error) {
	allowed, err := readAllow(allowFile)
	if err != nil {
		return 0, err
	}
	l, err := load(moduleDirs)
	if err != nil {
		return 0, err
	}
	g := l.graph()

	var findings []string
	reached := g.closure(nil)
	var extra []token.Pos
	for _, e := range allowed {
		pos, ok := g.byName[e.name]
		switch {
		case e.reason == "":
			findings = append(findings, fmt.Sprintf("%s: allowlist entry %s gives no reason", allowFile, e.name))
		case !ok:
			findings = append(findings, fmt.Sprintf("%s: stale allowlist entry %s: no such symbol under internal/", allowFile, e.name))
		case reached[pos]:
			findings = append(findings, fmt.Sprintf("%s: stale allowlist entry %s: a non-test file reaches it", allowFile, e.name))
		}
		if ok {
			extra = append(extra, pos)
		}
	}
	reached = g.closure(extra)
	var dead []token.Pos
	for pos := range g.nodes {
		if !reached[pos] {
			dead = append(dead, pos)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
	for _, pos := range dead {
		p := l.fset.Position(pos)
		rel, _ := filepath.Rel(l.root, p.Filename)
		findings = append(findings, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), p.Line, g.nodes[pos]))
	}
	for _, f := range findings {
		fmt.Fprintln(w, f)
	}
	return len(findings), nil
}

type allowEntry struct{ name, reason string }

func readAllow(path string) ([]allowEntry, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var allowed []allowEntry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		allowed = append(allowed, allowEntry{name, strings.TrimSpace(reason)})
	}
	return allowed, sc.Err()
}

// loader type-checks every package of the given modules once. It is the
// types.Importer of its own packages: a module package is found by the
// longest module-path prefix, anything else is the standard library.
type loader struct {
	fset    *token.FileSet
	root    string            // absolute directory of the first module
	modules map[string]string // module path -> absolute directory
	std     types.ImporterFrom
	pkgs    map[string]*pkg // by import path; nil while being loaded
	order   []*pkg
}

type pkg struct {
	path  string
	dir   string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

func load(moduleDirs []string) (*loader, error) {
	// The source importer would run cgo for net and os/user; the pure-Go
	// variants declare the same API.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &loader{
		fset:    fset,
		modules: map[string]string{},
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    map[string]*pkg{},
	}
	for i, dir := range moduleDirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		mod, err := modulePath(filepath.Join(abs, "go.mod"))
		if err != nil {
			return nil, err
		}
		l.modules[mod] = abs
		if i == 0 {
			l.root = abs
		}
	}
	for mod, dir := range l.modules {
		err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if p != dir {
				name := d.Name()
				if name == "testdata" || name[0] == '.' || name[0] == '_' {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir // a nested module is its own argument
				}
			}
			rel, _ := filepath.Rel(dir, p)
			_, err = l.loadDir(path.Join(mod, filepath.ToSlash(rel)), p)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return l, nil
}

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

func (l *loader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, "", 0) }

func (l *loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	best := ""
	for mod := range l.modules {
		if (path == mod || strings.HasPrefix(path, mod+"/")) && len(mod) > len(best) {
			best = mod
		}
	}
	if best == "" {
		return l.std.ImportFrom(path, srcDir, mode)
	}
	dir := filepath.Join(l.modules[best], filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, best), "/")))
	p, err := l.loadDir(path, dir)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return p.types, nil
}

// loadDir parses and type-checks the non-test files of one directory that
// match the build constraints; a directory without any yields nil.
func (l *loader) loadDir(path, dir string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil
		}
		return nil, err
	}
	if len(bp.GoFiles) == 0 {
		return nil, nil
	}
	l.pkgs[path] = nil
	p := &pkg{path: path, dir: dir, info: &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.order = append(l.order, p)
	return p, nil
}

// graph is the reference graph over declaration positions. Positions, not
// objects, are the keys: a use of an instantiated generic function or of a
// promoted method resolves to the position of the one declaration.
type graph struct {
	nodes  map[token.Pos]string // declarations under internal/ -> display name
	byName map[string]token.Pos
	edges  map[token.Pos][]token.Pos
	roots  []token.Pos
}

func (l *loader) graph() *graph {
	g := &graph{nodes: map[token.Pos]string{}, byName: map[string]token.Pos{}, edges: map[token.Pos][]token.Pos{}}
	internal := l.root + string(filepath.Separator) + "internal" + string(filepath.Separator)
	ifaces := l.interfaces()

	for _, p := range l.order {
		gated := strings.HasPrefix(p.dir+string(filepath.Separator), internal)
		rel, _ := filepath.Rel(l.root, p.dir)
		// declare registers a declaration of a gated package as a node and
		// returns the position its uses hang from (NoPos: a root).
		declare := func(id *ast.Ident, recv string) token.Pos {
			if !gated || id.Name == "_" || id.Name == "init" && recv == "" {
				return token.NoPos
			}
			name := filepath.ToSlash(rel) + "." + recv + id.Name
			g.nodes[id.Pos()] = name
			g.byName[name] = id.Pos()
			return id.Pos()
		}
		use := func(from []token.Pos, n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := p.info.Uses[id]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				for _, f := range from {
					if f == token.NoPos {
						g.roots = append(g.roots, obj.Pos())
					} else if f != obj.Pos() {
						g.edges[f] = append(g.edges[f], obj.Pos())
					}
				}
				return true
			})
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					recv := ""
					if d.Recv != nil && len(d.Recv.List) == 1 {
						recv = recvName(d.Recv.List[0].Type) + "."
					}
					use([]token.Pos{declare(d.Name, recv)}, d)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							from := declare(s.Name, "")
							use([]token.Pos{from}, s)
							if from != token.NoPos {
								g.edges[from] = append(g.edges[from], satisfied(p.info.Defs[s.Name], ifaces)...)
							}
						case *ast.ValueSpec:
							var from []token.Pos
							for _, id := range s.Names {
								from = append(from, declare(id, ""))
							}
							use(from, s)
						}
					}
				}
			}
		}
	}
	return g
}

func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

// interfaces collects every non-empty interface type a loaded file can use a
// value as: the type of any expression, any parameter of a called function,
// and the interfaces the imported standard-library packages export (fmt and
// encoding/json find Stringer and Marshaler by reflection, not by a use).
func (l *loader) interfaces() []*types.Interface {
	seen := map[*types.Interface]bool{}
	var out []*types.Interface
	add := func(t types.Type) {
		if t == nil {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	imported := map[*types.Package]bool{}
	for _, p := range l.order {
		for _, tv := range p.info.Types {
			add(tv.Type)
			if sig, ok := tv.Type.(*types.Signature); ok {
				for i := 0; i < sig.Params().Len(); i++ {
					t := sig.Params().At(i).Type()
					if s, ok := t.(*types.Slice); ok && sig.Variadic() {
						t = s.Elem()
					}
					add(t)
				}
			}
		}
		for _, imp := range p.types.Imports() {
			if _, ours := l.pkgs[imp.Path()]; ours || imported[imp] {
				continue
			}
			imported[imp] = true
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					add(tn.Type())
				}
			}
		}
	}
	return out
}

// satisfied returns the declaration positions of the methods through which
// the named type obj (or a pointer to it) satisfies any of ifaces.
func satisfied(obj types.Object, ifaces []*types.Interface) []token.Pos {
	tn, ok := obj.(*types.TypeName)
	if !ok || tn.IsAlias() {
		return nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
		return nil
	}
	ptr := types.NewPointer(named)
	mset := types.NewMethodSet(ptr)
	if mset.Len() == 0 {
		return nil
	}
	var out []token.Pos
	for _, it := range ifaces {
		if !types.Implements(named, it) && !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
				out = append(out, sel.Obj().Pos())
			}
		}
	}
	return out
}

// closure returns the declarations reachable from the roots plus extra.
func (g *graph) closure(extra []token.Pos) map[token.Pos]bool {
	reached := map[token.Pos]bool{}
	work := append(append([]token.Pos(nil), g.roots...), extra...)
	for len(work) > 0 {
		pos := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[pos] {
			continue
		}
		reached[pos] = true
		work = append(work, g.edges[pos]...)
	}
	return reached
}
