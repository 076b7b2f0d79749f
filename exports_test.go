package arq

// The dead-weight guard (ROADMAP 13): internal/ exports nothing that only
// its own tests call, and the option structs of optionStructs have no
// field that only tests set, except what testOnly lists with a reason, and
// what earlier PRs deleted stays deleted. It type-checks every non-test
// file of the module once (go/types; the standard library from GOROOT
// source, so no network and no build cache is needed) and looks at who
// refers to what.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testOnly is every exported name under internal/ (dir.Func,
// dir.Type.Method, dir.Type.Field) that no non-test code outside its
// package refers to, and why it is exported all the same. A name listed
// here that such code does refer to fails the check too: the list is also
// the promise that these stay out of the programs (the oracle engine
// above all).
var testOnly = map[string]string{
	// The oracle and the codecs only a fuzzer decodes.
	"internal/peer.NewEngine":      "test oracle: the sequential engine that flat.Engine's goldens and the scenario, sim and chaos tests compare against; no program may build one",
	"internal/wire.UnmarshalPong":  "fuzzed codec: the servent only sends pongs; FuzzUnmarshalPong holds the decoder to the encoder",
	"internal/wire.UnmarshalQuery": "fuzzed codec: the servent reads a query's fields in place; FuzzUnmarshalQuery and transport's tests decode whole payloads",
	// Observers: what another package's tests read off a live object.
	"internal/content.Model.Role":             "test observer: scenario's role-split test reads every node's role",
	"internal/core.Learner.Lag":               "test observer: routing's staleness tests read the serve plane's lag",
	"internal/core.rules.Support":             "test observer: vantage's checkpoint tests read a restored rule's support",
	"internal/obsv.Gauge.Value":               "test observer: transport, vantage, routing and fault tests read gauges",
	"internal/routing.NewAssoc":               "test constructor: one router on its own; programs build a slab with NewAssocs",
	"internal/scenario.ClusterPlan.FreeRider": "test observer: scenario's plan test counts the marked nodes",
	"internal/scenario.ClusterPlan.Owners":    "test observer: cluster's content-plan test checks every topic's two owners",
	"internal/stats.Summary.N":                "test observer: sim's tests count a result's samples",
	"internal/stream.CountTable.Len":          "test observer: core's window tests count an index's tracked pairs",
	// Option fields and enum values no program sets. The timing and fault
	// seams stay fields until ROADMAP 1's core takes a clock and a network
	// as arguments; every program runs their defaults.
	"internal/transport.Options.SendWait":        "timing seam: tests shorten the wait on a full outbox (1 ns never waits)",
	"internal/transport.Options.WriteWait":       "timing seam: the stalled-peer and killed-peer tests shorten the write deadline",
	"internal/transport.Options.HandshakeWait":   "timing seam: the stalled-handshake test gives up after 100 ms",
	"internal/transport.Options.DelayUnit":       "timing seam: the delay-fault test states the step it times",
	"internal/transport.Options.HeartbeatMisses": "timing seam: the heartbeat test declares a silent peer dead after two misses",
	"internal/transport.Options.RedialBase":      "timing seam: the teardown test redials every 10 ms",
	"internal/transport.Options.OutboxCap":       "test seam: outboxes of 4 to 512 frames make the shed, drain and stall tests fill one; programs run DefaultOutboxCap",
	"internal/transport.Options.Fault":           "fault seam: transport's and vantage's tests install an injector at the socket boundary",
	"internal/vantage.Options.Fault":             "fault seam: vantage's fault tests drop, duplicate and corrupt inbound frames",
	"internal/vantage.CheckpointConfig.Discount": "test seam: the restart test states the discount its supports are checked against; programs run the default 0.5",
	"internal/routing.AssocConfig.Floor":         "set by DefaultAssocConfig only; routing's eviction tests vary it",
	"internal/core.PublisherConfig.MinSupport":   "a Learner fills it from its Threshold; core's publisher tests set it apart from the index threshold",
	"internal/core.PublishSync":                  "the zero PublishPolicy, which every program runs and so none names",
	// Tested, and nothing calls it yet: the next sweep's list (ROADMAP 13).
	"internal/content.RoleBystander":   "no caller: the model assigns roles itself; content's and scenario's tests compare Model.Role with it",
	"internal/content.RoleClient":      "no caller: as RoleBystander",
	"internal/content.RoleHub":         "no caller: as RoleBystander",
	"internal/content.RoleProvider":    "no caller: as RoleBystander",
	"internal/peer.StopAbsorb":         "no caller: the zero StopRule; flat's golden test names it",
	"internal/scenario.EventChurn":     "no caller: the zero EventKind; scenario's own catalogue and its golden test name it",
	"internal/scenario.EventShock":     "no caller: no scenario in the catalogue schedules a shock",
	"internal/content.FileName":        "no caller: display name of a category, kept with its test",
	"internal/fault.NewPartition":      "no caller: the partition injector runs in fault's and transport's tests only",
	"internal/obsv.Histogram.Quantile": "no caller: bucket-interpolated quantile; snapshots carry the buckets",
	"internal/obsv.Registry.Reset":     "no caller: zeroes every instrument between measurements",
	"internal/stats.RNG.ExpFloat64":    "no caller: exponential variate",
	"internal/trace.SliceSource.Reset": "no caller: rewinds a slice source",
	"internal/trace.WritePairs":        "no caller: writes pairs as the JSONL that ReadAll reads, round-tripped by its test",
}

// staysDeleted is what simplicity PRs removed and a later PR must not
// bring back under the same name: declarations by package, and whole
// paths.
var staysDeleted = struct {
	names map[string][]string
	paths []string
}{
	names: map[string][]string{
		"internal/peer":   {"NewActorNet"},                       // PR 15: one production engine
		"internal/trace":  {"Dedup", "Join"},                     // PR 18: one import pipeline
		"internal/db":     {"NewTable", "MustTable", "EquiJoin"}, // PR 18
		"internal/stream": {"FlatCountTable", "NewCountTable"},   // PR 14, 20, 21: one count store
		"internal/core": {"Wide", "Merge", "Diff", "ShardedPairIndex", "ObsBatch", // PR 14, 18
			"ExtRuleSet", "GenerateExtRuleSet", "SlidingExt", "GenOptions", "RuleView", "EvaluateBlock", "Rule", // PR 23: one rule table
			"PublishOnChange"}, // PR 24: one servent configuration
		"internal/vantage":   {"RuleConfig", "DefaultRuleConfig"},                        // PR 24
		"internal/transport": {"ShedPolicy", "ShedOldest", "ShedNewest", "ShedDeadline"}, // PR 24
	},
	paths: []string{
		"internal/report", "cmd/arqcheck", "BENCH_baseline.json", "BENCH_scale.json", // PR 16: one read-out per job
		"internal/assoc", "internal/core/extend.go", // PR 23
		"internal/chaos/drill.go", // PR 24
	},
}

// optionStructs are the configuration structs whose exported fields are
// held to the same rule as functions: a field no program sets or reads is
// an option nothing runs with. The live stack's and the learn plane's so
// far; the simulator-side structs are the next sweep (ROADMAP 13).
var optionStructs = map[string][]string{
	"internal/transport": {"Options"},
	"internal/vantage":   {"Options", "CheckpointConfig"},
	"internal/routing":   {"AssocConfig"},
	"internal/core":      {"LearnerConfig", "PublisherConfig"},
}

// mapFree are the structs that stay on flat arrays (the measurements are
// in DESIGN.md "Policy plane"): no field of theirs is a Go map.
var mapFree = map[string][]string{
	"internal/stream": {"CountTable"},
	"internal/core":   {"RuleSet", "RuleSnapshot"},
}

// module is one type-checked source tree: every directory under root
// that holds non-test Go files, as package <path>/<dir>.
type module struct {
	root, path string
	fset       *token.FileSet
	std        types.Importer
	pkgs       map[string]*types.Package
	files      map[*types.Package][]*ast.File
	info       *types.Info
	errs       []error
}

// Import implements types.Importer: module packages are parsed and checked
// from their directory, once; everything else is the standard library.
func (m *module) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, m.path)
	if !ok || (rel != "" && rel[0] != '/') {
		return m.std.Import(path)
	}
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(m.root, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if match, _ := build.Default.MatchFile(dir, name); !match || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: m, Error: func(err error) { m.errs = append(m.errs, err) }}
	pkg, _ := conf.Check(path, m.fset, files, m.info)
	m.pkgs[path], m.files[pkg] = pkg, files
	return pkg, nil
}

// loadModule type-checks the tree at root as module path.
func loadModule(root, path string) (*module, error) {
	// Pure-Go variants of net and os/user: nothing here depends on which,
	// and the source importer would otherwise run cgo on them.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	m := &module{root: root, path: path, fset: token.NewFileSet(),
		pkgs: map[string]*types.Package{}, files: map[*types.Package][]*ast.File{},
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
	m.std = importer.ForCompiler(m.fset, "source", nil)
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); p != root && (name[0] == '.' || name[0] == '_' || name == "testdata") {
			return filepath.SkipDir
		}
		if src, _ := filepath.Glob(filepath.Join(p, "*.go")); !slices.ContainsFunc(src, func(f string) bool { return !strings.HasSuffix(f, "_test.go") }) {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		if rel == "." {
			_, err = m.Import(path)
		} else {
			_, err = m.Import(path + "/" + filepath.ToSlash(rel))
		}
		return err
	})
	if err == nil && len(m.errs) > 0 {
		err = fmt.Errorf("%d type errors, first: %v", len(m.errs), m.errs[0])
	}
	return m, err
}

// name is how testOnly spells obj: dir.Func, dir.Type.Method.
func (m *module) name(obj types.Object) string {
	s := strings.TrimPrefix(obj.Pkg().Path(), m.path+"/") + "."
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		s += t.(*types.Named).Obj().Name() + "."
	}
	return s + obj.Name()
}

// exports returns, sorted, the exported funcs, methods, consts and vars of
// the packages under internal/, and the exported fields of the structs
// options names by package directory, that no non-test code outside their
// own package refers to, and separately those it does refer to. A method
// also counts as referred to when its type satisfies an interface that
// asks for it (fmt.Stringer, peer.Router: calls through the interface name
// the interface's method, not the type's). A field is referred to by a
// composite-literal key, an assignment or a read. Types are not listed: a
// type is used when any member of it is.
func (m *module) exports(options map[string][]string) (unused, used []string) {
	referred := map[types.Object]bool{}
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var scan func(pkg *types.Package)
	scan = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, n := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && !it.IsComparable() {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			scan(imp)
		}
	}
	for pkg, files := range m.files {
		scan(pkg)
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					obj := m.info.Uses[id]
					if fn, ok := obj.(*types.Func); ok {
						obj = fn.Origin()
					}
					if obj != nil && obj.Pkg() != nil && obj.Pkg() != pkg {
						referred[obj] = true
					}
				}
				return true
			})
		}
	}
	viaInterface := func(named *types.Named, method string) bool {
		if named.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == method && types.Implements(types.NewPointer(named), it) {
					return true
				}
			}
		}
		return false
	}
	for _, pkg := range m.pkgs {
		if !strings.HasPrefix(pkg.Path(), m.path+"/internal/") {
			continue
		}
		dir := strings.TrimPrefix(pkg.Path(), m.path+"/")
		objs := map[string]types.Object{}
		for _, n := range pkg.Scope().Names() {
			switch obj := pkg.Scope().Lookup(n).(type) {
			case *types.Func, *types.Const, *types.Var:
				objs[m.name(obj)] = obj
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if fn := named.Method(i); !viaInterface(named, fn.Name()) {
						objs[m.name(fn)] = fn
					}
				}
				if st, ok := named.Underlying().(*types.Struct); ok && slices.Contains(options[dir], n) {
					for i := 0; i < st.NumFields(); i++ {
						objs[m.name(obj)+"."+st.Field(i).Name()] = st.Field(i)
					}
				}
			}
		}
		for name, obj := range objs {
			if !obj.Exported() {
				continue
			}
			if referred[obj] {
				used = append(used, name)
			} else {
				unused = append(unused, name)
			}
		}
	}
	slices.Sort(unused)
	slices.Sort(used)
	return unused, used
}

func TestNoTestOnlyExports(t *testing.T) {
	m, err := loadModule(".", "arq")
	if err != nil {
		t.Fatal(err)
	}
	unused, used := m.exports(optionStructs)
	for _, name := range unused {
		if testOnly[name] == "" {
			t.Errorf("%s is exported, and nothing outside its package but tests refers to it: delete it, unexport it, move it into the _test.go that needs it, or list it in testOnly with the reason", name)
		}
	}
	for name, reason := range testOnly {
		switch {
		case reason == "":
			t.Errorf("testOnly[%s] gives no reason", name)
		case slices.Contains(used, name):
			t.Errorf("%s is in testOnly (%s), and non-test code refers to it", name, reason)
		case !slices.Contains(unused, name):
			t.Errorf("testOnly lists %s, which does not exist", name)
		}
	}
	for dir, names := range staysDeleted.names {
		for _, name := range names {
			if pkg := m.pkgs[m.path+"/"+dir]; pkg != nil && pkg.Scope().Lookup(name) != nil {
				t.Errorf("%s.%s was deleted on purpose (see staysDeleted) and is back", dir, name)
			}
		}
	}
	for _, path := range staysDeleted.paths {
		if _, err := os.Stat(path); err == nil {
			t.Errorf("%s was deleted on purpose (see staysDeleted) and is back", path)
		}
	}
	for dir, names := range mapFree {
		for _, name := range names {
			st := m.pkgs[m.path+"/"+dir].Scope().Lookup(name).Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if _, isMap := st.Field(i).Type().Underlying().(*types.Map); isMap {
					t.Errorf("%s.%s.%s is a Go map; the type stays on flat arrays", dir, name, st.Field(i).Name())
				}
			}
		}
	}
}

// The check checks: a module with a dead func, a dead method, a dead
// const, a dead var, a dead enum value and an unset option field beside a
// live one of each, a method called only through an interface, and a
// fmt.Stringer.
func TestNoTestOnlyExportsFixture(t *testing.T) {
	m, err := loadModule(filepath.Join("testdata", "exportsfixture"), "fix")
	if err != nil {
		t.Fatal(err)
	}
	unused, used := m.exports(map[string][]string{"internal/a": {"Config"}})
	if want := []string{"internal/a.Config.Unset", "internal/a.Dead", "internal/a.DeadConst", "internal/a.DeadVar", "internal/a.ModeDead", "internal/a.T.Dead", "internal/a.hidden.Gone"}; !slices.Equal(unused, want) {
		t.Errorf("unused exports of the fixture = %v, want %v", unused, want)
	}
	if want := []string{"internal/a.Config.Set", "internal/a.Live", "internal/a.LiveConst", "internal/a.LiveVar", "internal/a.ModeLive", "internal/a.New", "internal/a.T.Live", "internal/a.hidden.Shown"}; !slices.Equal(used, want) {
		t.Errorf("used exports of the fixture = %v, want %v", used, want)
	}
}
