package arq

// The dead-weight guard (ROADMAP 13): internal/ exports nothing that only
// its own tests call, and the option structs of optionStructs have no
// field that only tests set, except what testOnly lists with a reason;
// the catalogue structs have no field that nothing writes; no program
// imports a test-only package; every tagged field of an obsv instrument
// set under internal/ has a reader; and what earlier PRs deleted stays
// deleted. It type-checks every non-test file of the module once
// (go/types; the standard library from GOROOT source, so no network and
// no build cache is needed) and looks at who refers to what.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// testOnly is every exported name under internal/ (dir.Func,
// dir.Type.Method, dir.Type.Field) that no non-test code outside its
// package refers to, and why it is exported all the same. A name listed
// here that such code does refer to fails the check too: the list is also
// the promise that these stay out of the programs.
var testOnly = map[string]string{
	// The codecs only a fuzzer decodes.
	"internal/wire.UnmarshalPong":  "fuzzed codec: the servent only sends pongs; FuzzUnmarshalPong holds the decoder to the encoder",
	"internal/wire.UnmarshalQuery": "fuzzed codec: the servent reads a query's fields in place; FuzzUnmarshalQuery and transport's tests decode whole payloads",
	// Observers: what another package's tests read off a live object.
	"internal/core.rules.Support":             "test observer: vantage's checkpoint tests read a restored rule's support",
	"internal/obsv.Gauge.Value":               "test observer: transport's teardown tests read a transport's conns_open",
	"internal/routing.NewAssoc":               "test constructor: one router on its own; programs build a slab with NewAssocs",
	"internal/content.Explicit":               "test constructor: hand-placed content that routing's, flat's, the oracle's and adapt's tests pin routes on; programs build a clustered model",
	"internal/overlay.NewGraph":               "test constructor: hand-built lines and stars in routing's, flat's, the oracle's and adapt's tests; programs build through the generators",
	"internal/overlay.Graph.M":                "test observer: flat's and the oracle's flood-count tests derive the message count from the edge count",
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
	"internal/vantage.CheckpointConfig.Discount": "test seam: the restart test states the discount its supports are checked against; programs run the default 0.5",
	"internal/fault.Config.Corrupt":              "fault seam: the faulted goldens and transport's and vantage's fault tests run the full mix",
	"internal/fault.Config.Delay":                "fault seam: the faulted goldens and transport's and vantage's fault tests run the full mix",
	"internal/fault.Config.Duplicate":            "fault seam: the faulted goldens and transport's and vantage's fault tests run the full mix",
	"internal/fault.Config.MaxDelay":             "fault seam: the faulted goldens and transport's and vantage's fault tests run the full mix",
	"internal/fault.Config.SlowDelay":            "fault seam: the faulted goldens and transport's and vantage's fault tests run the full mix",
	"internal/core.LearnerConfig.Decay":          "test seam: core's and routing's tests vary the learning constants; every program runs DefaultLearnerConfig (ROADMAP 15 fits and pins them)",
	"internal/core.LearnerConfig.DecayEvery":     "test seam: core's and routing's tests vary the learning constants; every program runs DefaultLearnerConfig (ROADMAP 15 fits and pins them)",
	"internal/core.LearnerConfig.Floor":          "test seam: core's and routing's tests vary the learning constants; every program runs DefaultLearnerConfig (ROADMAP 15 fits and pins them)",
}

// staysDeleted is what simplicity PRs removed and a later PR must not
// bring back under the same name: declarations by package (a type's
// method or field as Type.Name), and whole paths.
var staysDeleted = struct {
	names map[string][]string
	paths []string
}{
	names: map[string][]string{
		"internal/peer": {"NewActorNet", "Engine", "NewEngine", // PR 15: one production engine; PR 25: the oracle is peer/oracle
			"StopRule", "StopAbsorb", "StopAtHit", "QuerySpec.Stop", // one top-k stop rule: every hit prunes its subtree
			"DynamicEngine.NeighborsChanged",                     // one adjacency: both engines read the live graph
			"QueryEngine.RunQuery", "QueryEngine.RunQueryPhase"}, // one query entry point: RunQuerySpec
		"internal/db":     {"NewTable", "MustTable", "EquiJoin"}, // PR 18
		"internal/stream": {"FlatCountTable", "NewCountTable"},   // PR 14, 20, 21: one count store
		"internal/core": {"Wide", "Merge", "Diff", "ShardedPairIndex", "ObsBatch", // PR 14, 18
			"ExtRuleSet", "GenerateExtRuleSet", "SlidingExt", "GenOptions", "RuleView", "EvaluateBlock", "Rule", // PR 23: one rule table
			"PublishOnChange", // one servent configuration
			// One publication path: a learner always serves what it learned.
			"Publisher", "PublisherConfig", "PublishPolicy", "PublishSync", "PublishEpoch",
			"LearnerConfig.Publish", "Learner.Lag", "Learner.Stale",
			"RuleSnapshot.Run",                  // one forwarding decision: runs are read through Forward
			"newDecayIndex", "Learner.version"}, // a learner is its counts and its snapshot
		"internal/trace": {"Dedup", "Join", // one import pipeline
			"WritePairs", "SliceSource.Reset", // no caller left
			"Reader",                            // unexported: ReadAll is its one user
			"Pair.QueryTime", "Pair.ReplyTime"}, // no reader: the times stay on Query and Reply
		"internal/vantage": {"RuleConfig", "DefaultRuleConfig", // one servent configuration
			"ruleTopK", "connHost", "nodeHost", // one forwarding decision: core.DefaultTopK, trace.HostOf
			"Options.Fault"}, // one fault hook: transport.Options.Fault, through Options.Net
		"internal/transport": {"ShedPolicy", "ShedOldest", "ShedNewest", "ShedDeadline"}, // PR 24
		"internal/content": {"Build", "FileName", // one simulator configuration; no caller
			"RoleProvider", "RoleHub", "RoleClient", "RoleBystander"}, // the model assigns roles itself; tests observe them through origins and hosting
		"internal/sim": {"RunNet", "NetSpec", "NetEngine", // PR 25
			"RunBlocks", "BlockSource", // arqsim keeps one mode: arqnet is the network CLI
			"Result.WallNanos"}, // no program reads it: Run reads no clock
		"internal/scenario": {"EventKind", "EventShock", // one simulator configuration
			"ClusterPlan.HotFrac", // a constant
			"Runner.Nodes"},       // sim.BlockSource's
		// One flag contract per CLI: the flag table and internal/cli's checker.
		"cmd/arqsim":   {"checkSizes", "checkNetNodes", "runNet", "minNetNodes"},
		"cmd/arqnet":   {"checkNodes", "checkChaos"},
		"cmd/arqtrace": {"checkCounts"},
		"internal/stats": {"WeightedChoice", // tracegen picks a source from cached sums
			"RNG.ExpFloat64"}, // no caller

		// One publication path: a learner always serves what it learned.
		"internal/routing": {"AssocConfig.Publish", "AssocConfig.PublishEvery", "AssocConfig.StaleObs", "Assoc.PublishNow",
			// One forwarding decision: every router learns under core.DefaultLearnerConfig.
			"AssocConfig.Threshold", "AssocConfig.Decay", "AssocConfig.DecayEvery", "AssocConfig.Floor",
			"assocHost", "assocNode", // trace.HostOf and trace.IDOf
			"Assoc.RuleCount", // a test observer, declared in routing's tests
			// One top-k stop rule: QuerySpec.TopK alone.
			"OneShot.Stop", "ExpandingRing.Stop", "AssocTwoPhase.Stop", "Shortcuts.Stop"},
		"internal/obsv": {"Histogram.Quantile", "Registry.Reset", // no caller
			"GetCounter", "GetGauge", // one registration path: an owner registers its instrument set
			// Instruments nobody reads: the last histogram went with them.
			// A getter cannot come back without the type it returns.
			"Histogram", "DurationBuckets", "SizeBuckets", "HistogramSnapshot", "Bucket", "Snapshot.Histograms"},
		"internal/chaos": {"Config.StaleObs",
			"RecoveryConfig", "Config.Fault", "recoveryArm"}, // one drill config; one warm-up per A/B
		"internal/fault": {"Local", // one fault hook: nothing hands a frame to itself
			"Partition", "NewPartition", "Chain", "mPartDrops"}, // no program ran a partition (mPartDrops was fault.partition_drops); transport's test drops edges itself
		"internal/cluster": {"Universe", "SearchString", "Library"}, // scenario.ClusterPlan{N: n} says it
		// One workload driver: routing.RunWorkload with a routing.OneShot.
		// One adjacency: both engines read the live graph, unpatched.
		// One query entry point: RunQuerySpec.
		"internal/peer/flat":   {"Engine.Workload", "Engine.NeighborsChanged", "Engine.RunQuery", "Engine.RunQueryPhase"},
		"internal/peer/oracle": {"Engine.Workload", "Engine.NeighborsChanged", "Engine.RunQuery", "Engine.RunQueryPhase"},
		"internal/overlay": {"Graph.DegreeStats", // a test observer, declared in overlay's tests
			"CSR", "NewCSR"}, // one adjacency: the graph is the CSR the engine reads
	},
	paths: []string{
		"internal/report", "cmd/arqcheck", "BENCH_baseline.json", "BENCH_scale.json", // PR 16: one read-out per job
		"internal/assoc", "internal/core/extend.go", // PR 23
		"internal/chaos/drill.go",  // PR 24
		"internal/sim/net_test.go", // PR 25
		"internal/sim/net.go",      // arqsim keeps one mode

		"internal/routing/assoc_stale_test.go", // one publication path: no staleness fallback
		"internal/fault/partition.go",          // no program ran a partition
		// Examples that forked a golden-pinned arqbench section: network,
		// fig4 and grid, rewire (its chain is adapt's TestRewireChainSavesAHop).
		"examples/filesharing", "examples/adaptive", "examples/rewire",
	},
}

// optionStructs are the configuration structs whose exported fields are
// held to the same rule as functions: a field no program sets or reads is
// an option nothing runs with. The live stack's, the learn plane's and the
// simulator's.
var optionStructs = map[string][]string{
	"internal/transport": {"Options"},
	"internal/vantage":   {"Options", "CheckpointConfig"},
	"internal/routing":   {"AssocConfig"},
	"internal/core":      {"LearnerConfig"},
	"internal/tracegen":  {"Config"},
	"internal/content":   {"Config"},
	"internal/cluster":   {"Config"},
	"internal/chaos":     {"Config"},
	"internal/fault":     {"Config"},
	"internal/adapt":     {"Options"},
	"internal/sim":       {"Spec"},
}

// catalogueStructs are the structs a package's own catalogue fills in (the
// scenario presets): a field that no non-test code writes anywhere, by a
// composite-literal key or an assignment, is a setting no experiment has.
var catalogueStructs = map[string][]string{
	"internal/scenario": {"Scenario", "Event", "Schedule"},
}

// testOnlyPackages may be imported by _test.go files only: a non-test
// importer fails, and their exports are exempt from the unused rule.
var testOnlyPackages = []string{
	"internal/peer/oracle", // the reference the flat engine's goldens compare against
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
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}}
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
// the packages under internal/ but the exempt ones, and the exported
// fields of the structs options names by package directory, that no
// non-test code outside their own package refers to, and separately those
// it does refer to. A method also counts as referred to when its type
// satisfies an interface that asks for it (fmt.Stringer, peer.Router:
// calls through the interface name the interface's method, not the
// type's). A field is referred to by a
// composite-literal key, an assignment or a read. Types are not listed: a
// type is used when any member of it is.
func (m *module) exports(options map[string][]string, exempt []string) (unused, used []string) {
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
		dir := strings.TrimPrefix(pkg.Path(), m.path+"/")
		if !strings.HasPrefix(dir, "internal/") || slices.Contains(exempt, dir) {
			continue
		}
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

// unwritten returns, sorted, the fields of the structs catalogue names by
// package directory that no non-test code writes: no composite-literal
// key names one, no positional literal fills it, and no assignment has it
// on its left.
func (m *module) unwritten(catalogue map[string][]string) []string {
	written := map[types.Object]bool{}
	mark := func(e ast.Expr) {
		var id *ast.Ident
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			id = e
		case *ast.SelectorExpr:
			id = e.Sel
		}
		if v, ok := m.info.Uses[id].(*types.Var); ok && v.IsField() {
			written[v] = true
		}
	}
	for _, files := range m.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := m.info.TypeOf(n).Underlying().(*types.Struct)
					if !ok || len(n.Elts) == 0 {
						break
					}
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := 0; i < st.NumFields(); i++ {
							written[st.Field(i)] = true
						}
					}
				case *ast.KeyValueExpr:
					mark(n.Key)
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						mark(lhs)
					}
				case *ast.IncDecStmt:
					mark(n.X)
				}
				return true
			})
		}
	}
	var out []string
	for dir, names := range catalogue {
		for _, name := range names {
			obj := m.pkgs[m.path+"/"+dir].Scope().Lookup(name)
			st := obj.Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if !written[st.Field(i)] {
					out = append(out, m.name(obj)+"."+st.Field(i).Name())
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// importers returns, sorted, "file imports dir" for every non-test file
// of the module that imports one of the package directories listed.
func (m *module) importers(dirs []string) []string {
	var out []string
	for _, files := range m.files {
		for _, f := range files {
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if dir, ok := strings.CutPrefix(path, m.path+"/"); ok && slices.Contains(dirs, dir) {
					file, _ := filepath.Rel(m.root, m.fset.Position(f.Pos()).Filename)
					out = append(out, filepath.ToSlash(file)+" imports "+dir)
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// declares reports whether pkg declares name at package level, or, for
// Type.Name, whether one of its types has that method or field.
func declares(pkg *types.Package, name string) bool {
	typ, member, isMember := strings.Cut(name, ".")
	obj := pkg.Scope().Lookup(typ)
	if obj == nil || !isMember {
		return obj != nil
	}
	found, _, _ := types.LookupFieldOrMethod(obj.Type(), true, pkg, member)
	return found != nil
}

// instrument is one field of an obsv instrument set: a struct field of
// non-test code under internal/ tagged `obsv:"name"`.
type instrument struct {
	name, field string       // the name it is registered under, and its field
	file        string       // the declaring file, slash-separated from the root
	obj         types.Object // the field, for the references type-checking found
}

// instruments returns, sorted by name, every instrument the module
// declares.
func (m *module) instruments() []instrument {
	var out []instrument
	for pkg, files := range m.files {
		if !strings.HasPrefix(pkg.Path(), m.path+"/internal/") {
			continue
		}
		for _, f := range files {
			file, _ := filepath.Rel(m.root, m.fset.Position(f.Pos()).Filename)
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fd := range st.Fields.List {
					if fd.Tag == nil {
						continue
					}
					tag, _ := strconv.Unquote(fd.Tag.Value)
					name := reflect.StructTag(tag).Get("obsv")
					if name == "" {
						continue
					}
					for _, id := range fd.Names {
						out = append(out, instrument{name: name, field: id.Name, file: filepath.ToSlash(file), obj: m.info.Defs[id]})
					}
				}
				return true
			})
		}
	}
	slices.SortFunc(out, func(a, b instrument) int { return strings.Compare(a.name, b.name) })
	return out
}

// readers returns where each instrument is read, "" where nowhere: a .go
// file other than the declaring one (a program, benchmark/ or a test)
// that quotes its name, a golden under a testdata/ directory that names
// it as a whole word, a _test.go file of its own package that selects its
// field, or non-test code of another package that refers to its field.
// The first reader in file order is the one reported, a program's
// reference to the field only where nothing else reads it.
func (m *module) readers(ins []instrument) ([]string, error) {
	out := make([]string, len(ins))
	word := make([]*regexp.Regexp, len(ins))
	for i, in := range ins {
		word[i] = regexp.MustCompile(`(^|[^\w.])` + regexp.QuoteMeta(in.name) + `($|[^\w.])`)
	}
	err := filepath.WalkDir(m.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(m.root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if name := d.Name(); p != m.root && (name[0] == '.' || name[0] == '_') {
				return filepath.SkipDir
			}
			return nil
		}
		golden := slices.Contains(strings.Split(rel, "/"), "testdata")
		if golden == strings.HasSuffix(rel, ".go") {
			return nil // a fixture's source, or a file that is neither source nor golden
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var selected map[string]bool // of a _test.go file, parsed when first asked
		for i, in := range ins {
			switch {
			case out[i] != "" || rel == in.file:
			case golden && word[i].Match(src):
				out[i] = rel
			case !golden && strings.Contains(string(src), strconv.Quote(in.name)):
				out[i] = rel
			case strings.HasSuffix(rel, "_test.go") && path.Dir(rel) == path.Dir(in.file):
				if selected == nil {
					selected = map[string]bool{}
					f, err := parser.ParseFile(token.NewFileSet(), p, src, parser.SkipObjectResolution)
					if err != nil {
						return err
					}
					ast.Inspect(f, func(n ast.Node) bool {
						if sel, ok := n.(*ast.SelectorExpr); ok {
							selected[sel.Sel.Name] = true
						}
						return true
					})
				}
				if selected[in.field] {
					out[i] = rel + " (" + in.field + ")"
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	uses := map[types.Object]string{}
	for pkg, files := range m.files {
		for _, f := range files {
			file, _ := filepath.Rel(m.root, m.fset.Position(f.Pos()).Filename)
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := m.info.Uses[id]; obj != nil && obj.Pkg() != pkg && uses[obj] == "" {
						uses[obj] = filepath.ToSlash(file)
					}
				}
				return true
			})
		}
	}
	for i, in := range ins {
		if out[i] == "" && in.obj != nil && uses[in.obj] != "" {
			out[i] = uses[in.obj] + " (" + in.field + ")"
		}
	}
	return out, nil
}

func TestNoTestOnlyExports(t *testing.T) {
	m, err := loadModule(".", "arq")
	if err != nil {
		t.Fatal(err)
	}
	unused, used := m.exports(optionStructs, testOnlyPackages)
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
	for _, name := range m.unwritten(catalogueStructs) {
		t.Errorf("%s is a field of a catalogue struct that no non-test code writes: delete it, or give a preset that sets it", name)
	}
	for _, imp := range m.importers(testOnlyPackages) {
		t.Errorf("%s, which only _test.go files may import (testOnlyPackages)", imp)
	}
	for dir, names := range staysDeleted.names {
		for _, name := range names {
			if pkg := m.pkgs[m.path+"/"+dir]; pkg != nil && declares(pkg, name) {
				t.Errorf("%s.%s was deleted on purpose (see staysDeleted) and is back", dir, name)
			}
		}
	}
	for _, path := range staysDeleted.paths {
		if _, err := os.Stat(path); err == nil {
			t.Errorf("%s was deleted on purpose (see staysDeleted) and is back", path)
		}
	}
	ins := m.instruments()
	readers, err := m.readers(ins)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range ins {
		if readers[i] == "" {
			t.Errorf("instrument %q (%s in %s) is registered and nothing reads it: no other .go file quotes its name, no golden under testdata/ prints it, no test of its package selects %s, and no program of another package refers to it; delete it, or give it a reader", in.name, in.field, in.file, in.field)
		} else {
			t.Logf("instrument %-36s read by %s", in.name, readers[i])
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
// live one of each, a method called only through an interface, a
// fmt.Stringer, a catalogue field nothing writes beside one a program
// writes, a test-only package with a program importing it, names the
// stays-deleted check finds at package level, as methods and as fields,
// and an instrument of every kind of reader beside three without one.
func TestNoTestOnlyExportsFixture(t *testing.T) {
	m, err := loadModule(filepath.Join("testdata", "exportsfixture"), "fix")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.unwritten(map[string][]string{"internal/a": {"Preset"}}), []string{"internal/a.Preset.Never"}; !slices.Equal(got, want) {
		t.Errorf("unwritten catalogue fields of the fixture = %v, want %v", got, want)
	}
	if got, want := m.importers([]string{"internal/o"}), []string{"cmd/c/c.go imports internal/o"}; !slices.Equal(got, want) {
		t.Errorf("importers of the fixture's test-only package = %v, want %v", got, want)
	}
	for name, want := range map[string]bool{"Live": true, "Gone": false, "T.Live": true, "T.Shown": true, "T.Gone2": false, "Config.Set": true, "Config.Gone": false} {
		if got := declares(m.pkgs["fix/internal/a"], name); got != want {
			t.Errorf("declares(fixture, %s) = %v, want %v", name, got, want)
		}
	}
	ins := m.instruments()
	readers, err := m.readers(ins)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for i, in := range ins {
		got[in.name+" "+in.field+" "+in.file] = readers[i]
	}
	if want := map[string]string{
		"a.by_field ByField internal/a/instruments.go":      "cmd/b/b.go (ByField)",
		"a.by_golden ByGolden internal/a/instruments.go":    "internal/a/testdata/golden.txt",
		"a.by_name ByName internal/a/instruments.go":        "cmd/b/b.go",
		"a.by_test ByTest internal/a/instruments.go":        "internal/a/a_test.go (ByTest)",
		"a.elsewise Elsewise internal/a/instruments.go":     "",
		"a.in_own_code InOwnCode internal/a/instruments.go": "",
		"a.unread Unread internal/a/instruments.go":         "",
	}; !maps.Equal(got, want) {
		t.Errorf("the fixture's instruments and their readers = %v, want %v", got, want)
	}
	unused, used := m.exports(map[string][]string{"internal/a": {"Config"}}, []string{"internal/o", "internal/obsv"})
	if want := []string{"internal/a.Config.Unset", "internal/a.Dead", "internal/a.DeadConst", "internal/a.DeadVar", "internal/a.ModeDead", "internal/a.T.Dead", "internal/a.hidden.Gone"}; !slices.Equal(unused, want) {
		t.Errorf("unused exports of the fixture = %v, want %v", unused, want)
	}
	if want := []string{"internal/a.Config.Set", "internal/a.Live", "internal/a.LiveConst", "internal/a.LiveVar", "internal/a.ModeLive", "internal/a.New", "internal/a.T.Live", "internal/a.hidden.Shown"}; !slices.Equal(used, want) {
		t.Errorf("used exports of the fixture = %v, want %v", used, want)
	}
}
