package hcf_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unusedAllowlist names internal exports that may stay without a non-test
// reference, as "import/path.Name", each with the reason it ships.
var unusedAllowlist = map[string]string{}

// TestInternalExportsAreUsed fails when a top-level exported func, type,
// var or const under internal/ has no reference outside _test.go files:
// code that only tests call ships for tests alone. Move it into the
// _test.go file that needs it, delete it, or allowlist it with a reason.
func TestInternalExportsAreUsed(t *testing.T) {
	decls, refs := scanModule(t, ".")
	var unused []string
	for id, pos := range decls {
		if !refs[id] && unusedAllowlist[id] == "" {
			unused = append(unused, pos+": "+id)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported identifiers under internal/ have no non-test reference:\n  %s",
			len(unused), strings.Join(unused, "\n  "))
	}
	for id := range unusedAllowlist {
		if _, ok := decls[id]; !ok {
			t.Errorf("allowlisted %s is not declared under internal/ any more", id)
		}
	}
}

// scanModule parses every non-test Go file under root, whose go.mod
// names the import path of root; nested modules (perfbench) are resolved
// by their own go.mod. It returns the exported top-level identifiers
// declared under internal/, keyed "import/path.Name" with their position,
// and the set of such keys that some non-test file references: by
// selector through an import, or by bare name inside the declaring
// package. Blank assertions (var _ T = ...) are not references.
func scanModule(t *testing.T, root string) (decls map[string]string, refs map[string]bool) {
	t.Helper()
	decls, refs = map[string]string{}, map[string]bool{}
	fset := token.NewFileSet()
	modules := map[string]string{} // directory -> module path
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		pkg := importPath(t, dir, modules)
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasPrefix(filepath.ToSlash(dir), "internal/") {
			declare(f, pkg, fset, decls)
		}
		reference(f, pkg, refs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, refs
}

// importPath returns the import path of dir, from the nearest go.mod at
// or above it.
func importPath(t *testing.T, dir string, modules map[string]string) string {
	t.Helper()
	if mod, ok := modules[dir]; ok {
		return mod
	}
	var mod string
	if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
				mod = strings.TrimSpace(m)
			}
		}
	} else if parent := filepath.Dir(dir); parent != dir {
		mod = path.Join(importPath(t, parent, modules), filepath.Base(dir))
	} else {
		t.Fatal("no go.mod above ", dir)
	}
	modules[dir] = mod
	return mod
}

// declare records f's exported top-level funcs, types, vars and consts.
func declare(f *ast.File, pkg string, fset *token.FileSet, decls map[string]string) {
	add := func(id *ast.Ident) {
		if id.IsExported() {
			decls[pkg+"."+id.Name] = fset.Position(id.Pos()).String()
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n)
					}
				}
			}
		}
	}
}

// reference records every package-level name f may refer to: pkg.Name
// through an import, and pkg's own names used bare.
func reference(f *ast.File, pkg string, refs map[string]bool) {
	imports := map[string]string{} // local name -> import path
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = p
	}
	// skip holds identifiers that name no package-level entity: the
	// declaring identifiers themselves, struct and interface field names,
	// and the selected name of a selector.
	skip := map[*ast.Ident]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			skip[d.Name] = true
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					skip[s.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						skip[n] = true
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			if len(n.Names) == 1 && n.Names[0].Name == "_" {
				return false // a compile-time assertion, not a use
			}
		case *ast.Field:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.SelectorExpr:
			skip[n.Sel] = true
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[x.Name]; ok {
					refs[p+"."+n.Sel.Name] = true
					return false
				}
			}
		case *ast.Ident:
			if !skip[n] {
				refs[pkg+"."+n.Name] = true
			}
		}
		return true
	})
}
