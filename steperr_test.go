package gonamd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestStepErrorsChecked: an engine Step(dt) or Run(n, dt) reports a
// diverged step or a constraint solver that did not converge through its
// error, and Go lets a caller drop a returned error without a word. A
// dropped Step error is how a run would again stream NaN energies, or
// carry on after SHAKE gave up, as if nothing happened. Every non-test
// file outside benchmark/ (its own module, which freezes the old call
// shapes) must use the results of such calls.
func TestStepErrorsChecked(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); file != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			return err
		}
		files++
		for _, at := range discardedSteps(fset, f) {
			t.Errorf("%s: the results of an engine Step or Run call are discarded; check its error", at)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("scanned %d files; the walk is broken", files)
	}
}

// TestStepErrorsCheckedCatchesDiscards plants each discard shape the scan
// must refuse next to the checked forms it must accept.
func TestStepErrorsCheckedCatchesDiscards(t *testing.T) {
	const src = `package p

func f(e engine, pool pool) error {
	e.Step(0.5)
	go e.Step(0.5)
	defer e.Run(10, 0.5)
	_ = e.Step(0.5)
	en, _ := e.Run(10, 0.5)
	e.Run(10, 0.5)

	if err := e.Step(0.5); err != nil {
		return err
	}
	if _, err := e.Run(10, 0.5); err != nil {
		return err
	}
	pool.Run(region)
	sim.Run()
	ens.Step()
	return e.Step(en.Total())
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "planted.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := discardedSteps(fset, f)
	want := []string{"planted.go:4:2", "planted.go:5:5", "planted.go:6:8", "planted.go:7:6", "planted.go:8:11", "planted.go:9:2"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("flagged %v, want %v", got, want)
	}
}

// discardedSteps returns the positions of engine-shaped Step(dt) and
// Run(n, dt) calls in f whose results are dropped: a bare statement, a go
// or defer statement, or an assignment whose last (error) operand is the
// blank identifier. The scan is syntactic; no other method in the module
// is named Step with one argument or Run with two.
func discardedSteps(fset *token.FileSet, f *ast.File) []string {
	var at []string
	flag := func(e ast.Expr) {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		if sel.Sel.Name == "Step" && len(call.Args) == 1 || sel.Sel.Name == "Run" && len(call.Args) == 2 {
			at = append(at, fset.Position(call.Pos()).String())
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			flag(s.X)
		case *ast.GoStmt:
			flag(s.Call)
		case *ast.DeferStmt:
			flag(s.Call)
		case *ast.AssignStmt:
			if id, ok := s.Lhs[len(s.Lhs)-1].(*ast.Ident); ok && id.Name == "_" && len(s.Rhs) == 1 {
				flag(s.Rhs[0])
			}
		}
		return true
	})
	return at
}
