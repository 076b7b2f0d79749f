// Package a is the fixture of the unused-export check (exports_test.go):
// one live and one dead export of every kind the check lists.
package a

// Config is an option struct: the caller sets Set, nobody sets Unset.
type Config struct {
	Set   int
	Unset int
}

// Mode is an enum with one value nobody selects.
type Mode int

const (
	ModeLive Mode = iota
	ModeDead
)

const (
	LiveConst = 1
	DeadConst = 2
)

var (
	LiveVar int
	DeadVar int
)

func Live() int { return helper() }

// Dead is called by its own package only.
func Dead() int { return 0 }

func helper() int { return Dead() }

type T struct{ hidden }

func New() *T { return &T{} }

func (t *T) Live() int { return 1 }
func (t *T) Dead() int { return t.Live() }

// String is never named by a caller: fmt finds it through fmt.Stringer.
func (t *T) String() string { return "T" }

// Work is called only through the caller's own interface.
func (t *T) Work() {}

// hidden's exported methods are reachable through T, which embeds it.
type hidden struct{}

func (hidden) Shown() {}
func (hidden) Gone()  {}
