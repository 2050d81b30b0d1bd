package ulipc_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ulipc"
)

// TestPublicAPIGolden pins the exported surface of package ulipc to
// testdata/api_golden.txt: every exported top-level identifier, and the
// exported method set, with signatures, of every exported type —
// including the types aliased from internal packages and the methods
// promoted through embedding (ProcServer, ProcClient). An unreviewed
// addition, removal, rename or signature change fails this test; an
// intended API change updates the golden file in the same commit (run
// with ULIPC_UPDATE_GOLDEN=1).
//
// TestPublicAPIRedesignInvariants backs it with the deletions a
// regenerated golden must not undo.
var update = os.Getenv("ULIPC_UPDATE_GOLDEN") != ""

func TestPublicAPIGolden(t *testing.T) {
	got := strings.Join(append(exportedSurface(t), exportedMethods(t)...), "\n") + "\n"
	golden := filepath.Join("testdata", "api_golden.txt")
	if update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (set ULIPC_UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if got != string(want) {
		t.Fatalf("exported API surface drifted from %s.\nSet ULIPC_UPDATE_GOLDEN=1 to accept an intended change.\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// exportedSurface lists every exported top-level identifier of the
// root package, one "kind name" line each, sorted.
func exportedSurface(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["ulipc"]
	if !ok {
		t.Fatalf("package ulipc not found in %v", pkgs)
	}
	var out []string
	add := func(kind, name string) {
		if ast.IsExported(name) {
			out = append(out, fmt.Sprintf("%s %s", kind, name))
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil { // methods live on aliased internal types
					add("func", d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add("type", s.Name.Name)
					case *ast.ValueSpec:
						kind := "var"
						if d.Tok == token.CONST {
							kind = "const"
						}
						for _, n := range s.Names {
							add(kind, n.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// apiTypes maps every exported type name of package ulipc to its
// type, so exportedMethods can list method sets through reflection
// (which sees promoted methods and resolves aliases). A type missing
// here fails the golden test rather than dropping out of it.
var apiTypes = map[string]reflect.Type{
	"Admission":       reflect.TypeFor[ulipc.Admission](),
	"Algorithm":       reflect.TypeFor[ulipc.Algorithm](),
	"BlockClassStats": reflect.TypeFor[ulipc.BlockClassStats](),
	"BlockPool":       reflect.TypeFor[ulipc.BlockPool](),
	"BlockRef":        reflect.TypeFor[ulipc.BlockRef](),
	"Client":          reflect.TypeFor[ulipc.Client](),
	"Conn":            reflect.TypeFor[ulipc.Conn](),
	"DuplexHandler":   reflect.TypeFor[ulipc.DuplexHandler](),
	"Msg":             reflect.TypeFor[ulipc.Msg](),
	"MsgMeta":         reflect.TypeFor[ulipc.MsgMeta](),
	"Observer":        reflect.TypeFor[ulipc.Observer](),
	"ObserverConfig":  reflect.TypeFor[ulipc.ObserverConfig](),
	"Option":          reflect.TypeFor[ulipc.Option](),
	"Options":         reflect.TypeFor[ulipc.Options](),
	"Payload":         reflect.TypeFor[ulipc.Payload](),
	"PoolWorker":      reflect.TypeFor[ulipc.PoolWorker](),
	"ProcClient":      reflect.TypeFor[ulipc.ProcClient](),
	"ProcOptions":     reflect.TypeFor[ulipc.ProcOptions](),
	"ProcServer":      reflect.TypeFor[ulipc.ProcServer](),
	"ProcSystem":      reflect.TypeFor[ulipc.ProcSystem](),
	"QueueKind":       reflect.TypeFor[ulipc.QueueKind](),
	"Reply":           reflect.TypeFor[ulipc.Reply](),
	"Seg":             reflect.TypeFor[ulipc.Seg](),
	"SegConfig":       reflect.TypeFor[ulipc.SegConfig](),
	"Server":          reflect.TypeFor[ulipc.Server](),
	"ShedPolicy":      reflect.TypeFor[ulipc.ShedPolicy](),
	"System":          reflect.TypeFor[ulipc.System](),
	"TunerSnapshot":   reflect.TypeFor[ulipc.TunerSnapshot](),
}

// exportedMethods lists the method set of *T for every exported type T
// of the root package (the pointer's set includes the value methods),
// one "method T.Name func(params) results" line each, sorted.
func exportedMethods(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, line := range exportedSurface(t) {
		name, ok := strings.CutPrefix(line, "type ")
		if !ok {
			continue
		}
		typ, ok := apiTypes[name]
		if !ok {
			t.Errorf("exported type %s is missing from apiTypes", name)
			continue
		}
		pt := reflect.PointerTo(typ)
		for i := 0; i < pt.NumMethod(); i++ {
			m := pt.Method(i)
			out = append(out, fmt.Sprintf("method %s.%s %s", name, m.Name, signature(m.Type, 1)))
		}
	}
	sort.Strings(out)
	return out
}

// signature renders a func type from its parameter skip onward (1 drops
// a method value's receiver).
func signature(ft reflect.Type, skip int) string {
	var in, res []string
	for i := skip; i < ft.NumIn(); i++ {
		if ft.IsVariadic() && i == ft.NumIn()-1 {
			in = append(in, "..."+ft.In(i).Elem().String())
			continue
		}
		in = append(in, ft.In(i).String())
	}
	for i := 0; i < ft.NumOut(); i++ {
		res = append(res, ft.Out(i).String())
	}
	s := "func(" + strings.Join(in, ", ") + ")"
	switch len(res) {
	case 0:
	case 1:
		s += " " + res[0]
	default:
		s += " (" + strings.Join(res, ", ") + ")"
	}
	return s
}

// The redesign's specific guarantees, asserted directly so a golden
// regeneration cannot silently revert them: one verb per operation (the
// plain twins of the Ctx verbs are gone, but for the four error-less
// wrappers Client.Send and Server.Receive, Reply and Serve) and one way
// to configure (every knob an Options field; WithHistograms is the one
// Option left).
func TestPublicAPIRedesignInvariants(t *testing.T) {
	surface := append(exportedSurface(t), exportedMethods(t)...)
	has := func(prefix string) bool {
		for _, s := range surface {
			if s == prefix || strings.HasPrefix(s, prefix+" ") {
				return true
			}
		}
		return false
	}
	for _, want := range []string{
		"const BSA",
		"type TunerSnapshot",
		"var ErrBadTuning",
		"var WithHistograms",
		"method Client.Send",
		"method Server.Receive",
		"method Server.Reply",
		"method Server.Serve",
	} {
		if !has(want) {
			t.Errorf("missing %q in exported surface", want)
		}
	}
	for _, gone := range []string{
		"func ReplyKind", "var ReplyKind", "type Tuning",
		"var WithReplyKind", "var WithTuning", "var WithAdaptive",
		"var WithAllocBatch", "var WithDuplex", "var WithObserver",
		"var WithShards", "var WithAdmission",
		"method Client.SendAsync", "method Client.RecvReply", "method Client.SendBatch",
		"method Server.ReceiveBatch", "method Server.ServeBatch", "method Server.ReplyPayload",
		"method PoolWorker.Receive", "method PoolWorker.Reply", "method PoolWorker.Serve",
		"method DuplexHandler.Receive", "method DuplexHandler.Reply", "method DuplexHandler.ServeConn",
		"method Conn.Send", "method Conn.SendAsync", "method Conn.RecvReply", "method Conn.Close",
		"method System.Connect",
	} {
		if has(gone) {
			t.Errorf("%q is back in the exported surface", gone)
		}
	}
	if _, ok := reflect.TypeFor[ulipc.Options]().FieldByName("Adaptive"); ok {
		t.Error("Options.Adaptive is back: Alg BSA is the one way to select BSA")
	}
}
