package gonamd

import (
	"go/ast"
	"sort"
	"strconv"
	"testing"
)

// TestRootNamesHaveCallers: the root package is a facade over
// internal/, so an exported name in gonamd.go or options.go that no
// caller spells is a second way to reach an internal API that nobody
// takes. Every such name must appear as gonamd.<Name> in some other Go
// file of the tree — a command, a package under internal/, a root test
// or example, or the benchmark module.
func TestRootNamesHaveCallers(t *testing.T) {
	declared := map[string]string{} // name → declaring file
	used := map[string]bool{}
	err := parseGoFiles(".", true, func(rel string, _ []byte, f *ast.File) {
		if rel == "gonamd.go" || rel == "options.go" {
			for name := range packageNames(f) {
				declared[name] = rel
			}
			return
		}
		local := ""
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "gonamd" {
				local = "gonamd"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 || len(used) == 0 {
		t.Fatalf("found %d root names and %d qualified uses; the scan is broken", len(declared), len(used))
	}

	var unused []string
	for name := range declared {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s (%s) is spelled gonamd.%s nowhere else in the tree: delete or unexport it", name, declared[name], name)
	}
}

// packageNames returns the exported package-level names a file
// declares — types, constants, variables and functions, not methods —
// each mapped to whether it is a function.
func packageNames(f *ast.File) map[string]bool {
	names := map[string]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				names[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names[s.Name.Name] = false
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							names[n.Name] = false
						}
					}
				}
			}
		}
	}
	return names
}
