package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// auditedPackages lists the packages held to full exported-identifier doc
// coverage: every exported function, method (on an exported type), type,
// and const/var declaration must carry a doc comment (a group comment on
// the enclosing declaration counts for its members). New packages join
// this list as their doc.go audit lands; the docs-lint CI job runs this
// test alongside the link check.
var auditedPackages = []string{
	"internal/addrmap",
	"internal/campaign",
	"internal/engine",
	"internal/engine/storetest",
	"internal/livetrace",
	"internal/mem",
	"internal/obs",
	"internal/revoke",
	"internal/server",
	"internal/spanset",
	"internal/testutil",
	"internal/workload",
}

// TestDocsExportedIdentifiersDocumented is the doc.go audit as an enforced
// gate rather than a one-off review: it fails on any exported identifier
// in an audited package that lacks a doc comment.
func TestDocsExportedIdentifiersDocumented(t *testing.T) {
	for _, dir := range auditedPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					lintDecl(t, fset, decl)
				}
			}
		}
	}
}

// lintDecl reports every undocumented exported identifier introduced by
// one top-level declaration.
func lintDecl(t *testing.T, fset *token.FileSet, decl ast.Decl) {
	t.Helper()
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && exportedReceiver(d) && d.Doc == nil {
			report(t, fset, d.Pos(), d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
					report(t, fset, s.Pos(), s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, name := range s.Names {
					// A group comment on the const/var block
					// documents all of its members.
					if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(t, fset, name.Pos(), name.Name)
					}
				}
			}
		}
	}
}

// exportedReceiver reports whether a function is free-standing or a method
// on an exported type — methods on unexported types are not part of the
// public surface.
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	typ := d.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if idx, ok := typ.(*ast.IndexExpr); ok { // generic receiver
		typ = idx.X
	}
	ident, ok := typ.(*ast.Ident)
	return !ok || ident.IsExported()
}

func report(t *testing.T, fset *token.FileSet, pos token.Pos, name string) {
	t.Helper()
	t.Errorf("%s: exported identifier %s has no doc comment", fset.Position(pos), name)
}
