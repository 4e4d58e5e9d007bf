package drtm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"drtm/internal/obs"
)

// TestDocumentedNamesExist: every counter or metric name the documents quote
// in backticks is one the code reports — an obs registry name (an event or a
// gauge; a dotted prefix of one, which Snapshot.Count sums, too) or a metric
// benchmark/metrics.go defines. A quoted name is a lowercase dotted word
// (`rdma.msgs_per_txn`) whose first segment is one of those names' first
// segments, so Go identifiers (`kvs.Ordered`, `e.finger`) are not taken for
// one; so is one quoted as a string in backticked code
// (`Count("index.descent")`). The benchmark is a main package; its names are
// read from the file.
//
// So is every Go name quoted whole: a camelCase word (`unlockIfOwned`,
// `TestSmokeChaos`) or a dotted chain with a `Type.Member` link
// (`tx.Runtime.ReadPolicy`, `Tx.deferred`). Each camelCase segment, and each
// member of a capitalized segment, must be declared in some .go file of the
// module. All-caps names (`ATOMIC_GLOB`) and chains on a package from outside
// the module (`sync.Mutex`) are not checked.
func TestDocumentedNamesExist(t *testing.T) {
	var known []string
	for e := 0; e < obs.NumEvents; e++ {
		known = append(known, obs.Event(e).String())
	}
	for g := 0; g < obs.NumGauges; g++ {
		known = append(known, obs.Gauge(g).String())
	}
	src, err := os.ReadFile("benchmark/metrics.go")
	if err != nil {
		t.Fatal(err)
	}
	// A metric is the first field of a metricDef: a quoted name, or an
	// expression of quoted parts and variables (`"txn." + t + ".wall_p50_us"`),
	// each variable standing for one name segment.
	var metrics []*regexp.Regexp
	defRe := regexp.MustCompile(`(?:Name:\s*|\{)("[^"]*"(?:\s*\+\s*(?:\w+|"[^"]*"))*)\s*,`)
	for _, m := range defRe.FindAllStringSubmatch(string(src), -1) {
		var pat strings.Builder
		for _, part := range strings.Split(m[1], "+") {
			if part = strings.TrimSpace(part); strings.HasPrefix(part, `"`) {
				pat.WriteString(regexp.QuoteMeta(strings.Trim(part, `"`)))
			} else {
				pat.WriteString(`[a-z0-9_]+`)
			}
		}
		metrics = append(metrics, regexp.MustCompile(`^`+pat.String()+`$`))
		known = append(known, strings.Trim(strings.TrimSpace(strings.Split(m[1], "+")[0]), `"`))
	}
	if len(metrics) < 50 {
		t.Fatalf("read %d metric definitions from benchmark/metrics.go, want its tables", len(metrics))
	}
	spaces := map[string]bool{}
	for _, k := range known {
		if i := strings.IndexByte(k, '.'); i > 0 {
			spaces[k[:i]] = true
		}
	}
	exists := func(name string) bool {
		for e := 0; e < obs.NumEvents; e++ {
			if n := obs.Event(e).String(); n == name || strings.HasPrefix(n, name+".") {
				return true
			}
		}
		for g := 0; g < obs.NumGauges; g++ {
			if obs.Gauge(g).String() == name {
				return true
			}
		}
		for _, re := range metrics {
			if re.MatchString(name) {
				return true
			}
		}
		return false
	}

	declared, outside := goDeclarations(t)
	goName := regexp.MustCompile("^`([A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*)*)(?:\\(.*\\))?`$")
	typeName := regexp.MustCompile(`^[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*$`) // not all caps
	camel := regexp.MustCompile(`^_*[A-Za-z][A-Za-z0-9]*(?:[a-z][A-Z]|[A-Z][a-z])[A-Za-z0-9_]*$`)
	undeclared := func(chain string) []string {
		segs := strings.Split(chain, ".")
		if len(segs) > 1 && outside[segs[0]] {
			return nil
		}
		var bad []string
		for i, seg := range segs {
			member := i > 0 && typeName.MatchString(segs[i-1])
			if (member || camel.MatchString(seg)) && !declared[seg] {
				bad = append(bad, seg)
			}
		}
		return bad
	}

	// A backticked span quotes a name whole (`rdma.msgs_per_txn`) or as a
	// string in code (`db.Stats().Count("lock.born")`).
	span := regexp.MustCompile("`[^`\\n]+`")
	dotted := `[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+`
	whole, inCode := regexp.MustCompile("^`("+dotted+")`$"), regexp.MustCompile(`"(`+dotted+`)"`)
	for _, doc := range []string{"DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, sp := range span.FindAllString(line, -1) {
				if m := goName.FindStringSubmatch(sp); m != nil {
					if bad := undeclared(m[1]); bad != nil {
						t.Errorf("%s:%d: %s names %q, declared in no .go file of the module", doc, i+1, sp, bad)
					}
				}
				names := inCode.FindAllStringSubmatch(sp, -1)
				if m := whole.FindStringSubmatch(sp); m != nil {
					names = append(names, m)
				}
				for _, m := range names {
					name := m[1]
					if spaces[name[:strings.IndexByte(name, '.')]] && !exists(name) {
						t.Errorf("%s:%d: %q is neither an obs registry name nor a benchmark metric", doc, i+1, name)
					}
				}
			}
		}
	}
}

// goDeclarations parses every .go file of the module and returns each name
// declared in one — a package-level or local type, function, method, value,
// field, parameter or := variable — and the names of the packages imported from
// outside the module.
func goDeclarations(t *testing.T) (declared, outside map[string]bool) {
	declared, outside = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata"):
			return filepath.SkipDir // as the go tool does
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, im := range f.Imports {
			if p := strings.Trim(im.Path.Value, `"`); !strings.HasPrefix(p, "drtm/") {
				outside[p[strings.LastIndexByte(p, '/')+1:]] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var names []*ast.Ident
			switch n := n.(type) {
			case *ast.FuncDecl:
				names = []*ast.Ident{n.Name}
			case *ast.TypeSpec:
				names = []*ast.Ident{n.Name}
			case *ast.ValueSpec:
				names = n.Names
			case *ast.Field:
				names = n.Names
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					for _, e := range n.Lhs {
						if id, ok := e.(*ast.Ident); ok {
							names = append(names, id)
						}
					}
				}
			}
			for _, id := range names {
				declared[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared, outside
}
