package gonamd

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

var countsRoot = flag.String("counts", "", "print the counts table of the source tree rooted at this directory")

// TestCounts parses every Go file of the module and fails on any that
// does not parse. With -counts DIR it prints the counts table of the
// tree at DIR — the numbers a simplicity claim is judged on, so that no
// change counts them by hand. `make counts` prints it for a base commit
// and the working tree, then the diff.
func TestCounts(t *testing.T) {
	root := *countsRoot
	if root == "" {
		root = "."
	}
	c, err := countTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.pkgs) == 0 || c.pkgs["."] == nil {
		t.Fatalf("found %d packages and no root package under %s; the scan is broken", len(c.pkgs), root)
	}
	if *countsRoot != "" {
		c.write(os.Stdout)
	}
}

// flagDefs are the flag package functions that define a flag.
var flagDefs = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// testKinds are the function name prefixes go test runs, in table order.
var testKinds = []string{"Test", "Fuzz", "Benchmark", "Example"}

type pkgCounts struct{ nonTest, test, exported int }

type treeCounts struct {
	pkgs          map[string]*pkgCounts // by slash-separated directory
	options       []string              // root With* options
	specFields    map[string][]string   // "<dir> <Type>" → JSON names of a *Spec struct
	flags         map[string]int        // cmd directory → flag definitions
	getenv        map[string]int        // file → os.Getenv/LookupEnv calls
	funcs         map[string]int        // test kind → functions
	engineMethods int                   // exported methods of internal/engine.Engine
	refusals      int                   // single-result `return fmt.Errorf` in serve/spec.go
}

// countTree scans every package under root except nested modules
// (benchmark/).
func countTree(root string) (*treeCounts, error) {
	c := &treeCounts{
		pkgs:       map[string]*pkgCounts{},
		specFields: map[string][]string{},
		flags:      map[string]int{},
		getenv:     map[string]int{},
		funcs:      map[string]int{},
	}
	return c, parseGoFiles(root, false, c.add)
}

// parseGoFiles parses every Go file under root and hands fn its
// slash-separated path relative to root, its source and its syntax.
// It skips hidden, underscore and testdata directories, and nested
// modules unless nested is set.
func parseGoFiles(root string, nested bool, fn func(rel string, src []byte, f *ast.File)) error {
	fset := token.NewFileSet()
	return filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil || file == root {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(file, "go.mod")); err == nil && !nested {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") {
			return nil
		}
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, file, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, file)
		if err != nil {
			return err
		}
		fn(filepath.ToSlash(rel), src, f)
		return nil
	})
}

func (c *treeCounts) add(rel string, src []byte, f *ast.File) {
	dir := pathDir(rel)
	p := c.pkgs[dir]
	if p == nil {
		p = &pkgCounts{}
		c.pkgs[dir] = p
	}
	lines := bytes.Count(src, []byte("\n"))
	if strings.HasSuffix(rel, "_test.go") {
		p.test += lines
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name != "TestMain" {
				for _, kind := range testKinds {
					if isTestName(fn.Name.Name, kind) {
						c.funcs[kind]++
					}
				}
			}
		}
		return
	}
	p.nonTest += lines
	for name, fn := range packageNames(f) {
		p.exported++
		if fn && dir == "." && strings.HasPrefix(name, "With") {
			c.options = append(c.options, name)
		}
	}
	isSpec := rel == "internal/serve/spec.go"
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil && n.Name.IsExported() && dir == "internal/engine" && recvName(n.Recv.List[0].Type) == "Engine" {
				c.engineMethods++
			}
		case *ast.TypeSpec:
			if st, ok := n.Type.(*ast.StructType); ok && strings.HasSuffix(n.Name.Name, "Spec") {
				if names := jsonFields(st); len(names) > 0 {
					c.specFields[dir+" "+n.Name.Name] = names
				}
			}
		case *ast.CallExpr:
			switch pkg, name := selector(n.Fun); {
			case pkg == "flag" && flagDefs[name] && strings.HasPrefix(dir, "cmd/"):
				c.flags[dir]++
			case pkg == "os" && (name == "Getenv" || name == "LookupEnv"):
				c.getenv[rel]++
			}
		case *ast.ReturnStmt:
			if call, ok := onlyResult(n).(*ast.CallExpr); ok && isSpec {
				if pkg, name := selector(call.Fun); pkg == "fmt" && name == "Errorf" {
					c.refusals++
				}
			}
		}
		return true
	})
}

func (c *treeCounts) write(w io.Writer) {
	fmt.Fprintln(w, "counts of every package outside nested modules (benchmark/ is one)")
	fmt.Fprintf(w, "\n%-28s %9s %9s %9s\n", "package", "non-test", "test", "exported")
	var total pkgCounts
	for _, dir := range sortedKeys(c.pkgs) {
		p := c.pkgs[dir]
		fmt.Fprintf(w, "%-28s %9d %9d %9d\n", dir, p.nonTest, p.test, p.exported)
		total.nonTest += p.nonTest
		total.test += p.test
		total.exported += p.exported
	}
	fmt.Fprintf(w, "%-28s %9d %9d %9d\n", "total", total.nonTest, total.test, total.exported)

	sort.Strings(c.options)
	fmt.Fprintf(w, "\nroot With* options: %d\n", len(c.options))
	for _, o := range c.options {
		fmt.Fprintf(w, "  %s\n", o)
	}

	fmt.Fprintln(w, "\nJSON-tagged *Spec struct fields")
	for _, k := range sortedKeys(c.specFields) {
		fmt.Fprintf(w, "  %-34s %3d  %s\n", k, len(c.specFields[k]), strings.Join(c.specFields[k], " "))
	}

	fmt.Fprintln(w, "\nflag definitions")
	n := 0
	for _, dir := range sortedKeys(c.flags) {
		fmt.Fprintf(w, "  %-26s %4d\n", dir, c.flags[dir])
		n += c.flags[dir]
	}
	fmt.Fprintf(w, "  %-26s %4d\n", "total", n)

	n = 0
	for _, v := range c.getenv {
		n += v
	}
	fmt.Fprintf(w, "\nos.Getenv/os.LookupEnv calls outside tests: %d\n", n)
	for _, file := range sortedKeys(c.getenv) {
		fmt.Fprintf(w, "  %-26s %4d\n", file, c.getenv[file])
	}

	fmt.Fprintln(w, "\ntest functions")
	for _, kind := range testKinds {
		fmt.Fprintf(w, "  %-26s %4d\n", kind, c.funcs[kind])
	}
	fmt.Fprintf(w, "  %-26s %4d\n", "Test+Fuzz+Benchmark", c.funcs["Test"]+c.funcs["Fuzz"]+c.funcs["Benchmark"])

	fmt.Fprintf(w, "\nexported methods of internal/engine.Engine: %d\n", c.engineMethods)
	fmt.Fprintf(w, "single-result `return fmt.Errorf` (admission refusals) in internal/serve/spec.go: %d\n", c.refusals)
}

// isTestName reports whether go test treats name as a function of the
// kind: the prefix, then nothing or a rune that is not lower case.
func isTestName(name, kind string) bool {
	if !strings.HasPrefix(name, kind) {
		return false
	}
	r, _ := utf8.DecodeRuneInString(name[len(kind):])
	return len(name) == len(kind) || !unicode.IsLower(r)
}

func pathDir(rel string) string {
	if i := strings.LastIndexByte(rel, '/'); i >= 0 {
		return rel[:i]
	}
	return "."
}

func recvName(x ast.Expr) string {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func selector(x ast.Expr) (pkg, name string) {
	if sel, ok := x.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			return id.Name, sel.Sel.Name
		}
	}
	return "", ""
}

func onlyResult(r *ast.ReturnStmt) ast.Expr {
	if len(r.Results) == 1 {
		return r.Results[0]
	}
	return nil
}

// jsonFields lists the JSON names of a struct's tagged fields.
func jsonFields(st *ast.StructType) []string {
	var names []string
	for _, fld := range st.Fields.List {
		if fld.Tag == nil {
			continue
		}
		tag, err := strconv.Unquote(fld.Tag.Value)
		if err != nil {
			continue
		}
		if name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ","); name != "" && name != "-" {
			names = append(names, name)
		}
	}
	return names
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
