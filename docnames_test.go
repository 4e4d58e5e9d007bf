package drtm

import (
	"os"
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
