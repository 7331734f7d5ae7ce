// Command deadcode lists the functions declared in the module's
// non-test code that no binary links, and fails on any of them the
// allowlist does not name. scripts/deadcode.sh builds the binaries and
// runs it; see there for the whole check.
//
// Usage:
//
//	deadcode [-root .] [-allow scripts/deadcode.allow] nm.txt...
//
// Each nm.txt is `go tool nm` output for binaries built with inlining
// off (-gcflags=all=-l), so a function the compiler would inline still
// shows up as a symbol wherever it is called. A declared function is
// linked when some binary holds a symbol for it, for one of its
// closures or for its method value; generic instantiation brackets are
// stripped first, so (*engineCache[go.shape.string]).get matches
// engineCache.get. Methods are matched by receiver type name. Package
// main is skipped (its code is the binaries themselves), as are init
// functions, test files and files the current build constraints
// exclude.
//
// The allowlist holds one entry a line: a pattern, then the reason the
// matched functions stay although no binary links them. A pattern
// ending in ".go" matches every function declared in that file (a path
// relative to the module root); any other pattern matches a function's
// name, "importpath.Func" or "importpath.Type.Method". Both are
// path.Match globs. An entry that matches no unlinked function is
// stale and fails the check too, so the list shrinks with the code.
//
// The exit status is 1 on any unlisted unlinked function or stale
// entry.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// decl is one function or method declared in non-test code.
type decl struct {
	key   string // importpath.Func or importpath.Type.Method
	file  string // slash path relative to the module root
	line  int
	lines int // from the func keyword to the closing brace
}

// allowEntry is one allowlist line.
type allowEntry struct {
	pattern string
	lineNo  int
	hits    int
}

func main() {
	root := flag.String("root", ".", "module root")
	allowPath := flag.String("allow", "scripts/deadcode.allow", "allowlist file")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "deadcode: no nm output given")
		os.Exit(2)
	}
	if err := run(*root, *allowPath, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(1)
	}
}

func run(root, allowPath string, nmFiles []string) error {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return err
	}
	decls, err := declared(root, module)
	if err != nil {
		return err
	}
	linked := map[string]bool{}
	for _, f := range nmFiles {
		if err := readNM(f, module, linked); err != nil {
			return err
		}
	}
	allow, err := readAllow(allowPath)
	if err != nil {
		return err
	}

	var unlinked, unlisted []decl
	var unlinkedLines, unlistedLines int
	for _, d := range decls {
		if linked[d.key] {
			continue
		}
		unlinked = append(unlinked, d)
		unlinkedLines += d.lines
		if e := match(allow, d); e != nil {
			e.hits++
			continue
		}
		unlisted = append(unlisted, d)
		unlistedLines += d.lines
	}
	fmt.Printf("deadcode: %d of %d declared functions unlinked (%d lines); %d not allowlisted (%d lines)\n",
		len(unlinked), len(decls), unlinkedLines, len(unlisted), unlistedLines)
	for _, d := range unlisted {
		fmt.Printf("  unlinked %s:%d  %s (%d lines)\n", d.file, d.line, d.key, d.lines)
	}
	stale := 0
	for _, e := range allow {
		if e.hits == 0 {
			stale++
			fmt.Printf("  stale    %s:%d  %s matches no unlinked function\n", allowPath, e.lineNo, e.pattern)
		}
	}
	if len(unlisted) > 0 || stale > 0 {
		return fmt.Errorf("%d unlinked functions not allowlisted, %d stale allowlist entries", len(unlisted), stale)
	}
	return nil
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// declared returns every function declared in the module's non-test,
// non-main files that the current build constraints select, sorted by
// file and line. Nested modules and hidden or testdata directories are
// not walked.
func declared(root, module string) ([]decl, error) {
	var out []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p == root {
				return nil
			}
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		pkg := module
		if d := path.Dir(rel); d != "." {
			pkg += "/" + d
		}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "_" || (fd.Recv == nil && fd.Name.Name == "init") {
				continue
			}
			key := pkg + "."
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				key += recvName(fd.Recv.List[0].Type) + "."
			}
			key += fd.Name.Name
			start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
			out = append(out, decl{key: key, file: rel, line: start.Line, lines: end.Line - start.Line + 1})
		}
		return nil
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out, err
}

// recvName is the type name of a method receiver: T for T, *T, T[K]
// and *T[K, V].
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// readNM adds to linked every function name the module's symbols in
// one `go tool nm` listing account for.
func readNM(file, module string, linked map[string]bool) error {
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		// "  addr T name", where name may hold spaces inside
		// instantiation brackets.
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || (fields[1] != "T" && fields[1] != "t") {
			continue
		}
		sym := strings.Join(fields[2:], " ")
		if !strings.HasPrefix(sym, module+".") && !strings.HasPrefix(sym, module+"/") {
			continue
		}
		for _, k := range symbolKeys(sym) {
			linked[k] = true
		}
	}
	return sc.Err()
}

// symbolKeys returns the declared-function names a text symbol can
// stand for: the function itself, or the method if the symbol is
// Type.Method. A closure (F.func1, T.M.func2.1) or method value (T.M-fm)
// accounts for its enclosing function, which the binary must reach to
// make it.
func symbolKeys(sym string) []string {
	s := stripBrackets(sym)
	start := strings.LastIndex(s, "/") + 1
	dot := strings.Index(s[start:], ".")
	if dot < 0 {
		return nil
	}
	pkg, rest := s[:start+dot], s[start+dot+1:]
	rest = strings.NewReplacer("(*", "", "(", "", ")", "").Replace(rest)
	parts := strings.Split(rest, ".")
	keys := []string{pkg + "." + strings.TrimSuffix(parts[0], "-fm")}
	if len(parts) > 1 {
		keys = append(keys, keys[0]+"."+strings.TrimSuffix(parts[1], "-fm"))
	}
	return keys
}

// stripBrackets removes every generic instantiation bracket, nested
// ones included.
func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// readAllow parses the allowlist: "pattern reason", split at the first
// blank, with # comments and blank lines ignored. Every entry needs a
// reason.
func readAllow(file string) ([]*allowEntry, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var out []*allowEntry
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		pattern, reason := line, ""
		if j := strings.IndexAny(line, " \t"); j >= 0 {
			pattern, reason = line[:j], strings.TrimSpace(line[j+1:])
		}
		if reason == "" {
			return nil, fmt.Errorf("%s:%d: entry %q gives no reason", file, i+1, pattern)
		}
		if _, err := path.Match(pattern, ""); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", file, i+1, err)
		}
		out = append(out, &allowEntry{pattern: pattern, lineNo: i + 1})
	}
	return out, nil
}

// match returns the first allowlist entry that names d, or nil.
func match(allow []*allowEntry, d decl) *allowEntry {
	for _, e := range allow {
		subject := d.key
		if strings.HasSuffix(e.pattern, ".go") {
			subject = d.file
		}
		if ok, _ := path.Match(e.pattern, subject); ok {
			return e
		}
	}
	return nil
}
