package specdb_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestRootPackageExportedDocs enforces the godoc contract on the public
// facade: every exported identifier declared in the root package — types,
// functions, methods, and const/var specs — must carry a doc comment
// (grouped declarations may share the group's comment). CI runs this as the
// docs/lint gate, so regressions fail the build.
func TestRootPackageExportedDocs(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["specdb"]
	if !ok {
		t.Fatalf("root package not found; parsed %v", pkgs)
	}
	for name, file := range pkg.Files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || exportedRecv(d) == false {
					continue
				}
				if d.Doc == nil {
					t.Errorf("%s: exported %s lacks a doc comment", fset.Position(d.Pos()), funcLabel(d))
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							t.Errorf("%s: exported type %s lacks a doc comment", fset.Position(s.Pos()), s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
								t.Errorf("%s: exported %s %s lacks a doc comment", fset.Position(id.Pos()), d.Tok, id.Name)
							}
						}
					}
				}
			}
		}
	}
}

// exportedRecv reports whether a method's receiver type (if any) is
// exported; top-level functions count as exported receivers.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.IsExported()
	}
	return true
}

func funcLabel(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return "func " + d.Name.Name
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return "method " + id.Name + "." + d.Name.Name
	}
	return "method " + d.Name.Name
}
