// Package cli is the flag contract of the commands under cmd/: a table
// of every flag's default, usage, least value and the modes that read
// it, checked against the command line.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Flag is one row of a command's flag table.
type Flag struct {
	Name   string
	Min    *int     // the least value the command line may give an int flag
	Modes  []string // the modes that read the flag; none means every mode
	define func(*flag.FlagSet)
	n      *int // an int flag's value
}

// Var declares the flag name, parsed into p with default def.
func Var[T int | uint64 | float64 | bool | string](p *T, name string, def T, usage string) Flag {
	f := Flag{Name: name, define: func(fs *flag.FlagSet) {
		switch p := any(p).(type) {
		case *int:
			fs.IntVar(p, name, any(def).(int), usage)
		case *uint64:
			fs.Uint64Var(p, name, any(def).(uint64), usage)
		case *float64:
			fs.Float64Var(p, name, any(def).(float64), usage)
		case *bool:
			fs.BoolVar(p, name, any(def).(bool), usage)
		case *string:
			fs.StringVar(p, name, any(def).(string), usage)
		}
	}}
	f.n, _ = any(p).(*int)
	return f
}

// AtLeast gives an int flag its least value; a default below it is the
// flag's "off".
func (f Flag) AtLeast(least int) Flag { f.Min = &least; return f }

// In names the modes that read the flag.
func (f Flag) In(modes ...string) Flag { f.Modes = modes; return f }

// Command is one command's flag table and where its refusals go.
type Command struct {
	Name   string
	Stderr io.Writer
	Flags  []Flag
	set    map[string]bool
}

// Parse sets every flag to its default, then to what args give. -h
// writes the usage and returns flag.ErrHelp.
func (c *Command) Parse(args []string) error {
	fs := flag.NewFlagSet(c.Name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	for _, f := range c.Flags {
		f.define(fs)
	}
	err := fs.Parse(args)
	switch {
	case errors.Is(err, flag.ErrHelp):
		fs.SetOutput(c.Stderr)
		fs.Usage()
	case err == nil && fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	c.set = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { c.set[f.Name] = true })
	return err
}

// Set reports whether the command line set the flag name.
func (c *Command) Set(name string) bool { return c.set[name] }

// Check refuses, as an error of one line, the first flag of the table
// that the command line set below its Min or that none of the running
// modes reads.
func (c *Command) Check(modes ...string) error {
	for _, f := range c.Flags {
		switch {
		case !c.set[f.Name]:
		case f.Min != nil && *f.n < *f.Min:
			return fmt.Errorf("-%s must be at least %d, got %d", f.Name, *f.Min, *f.n)
		case len(f.Modes) > 0 && !slices.ContainsFunc(modes, func(m string) bool { return slices.Contains(f.Modes, m) }):
			return fmt.Errorf("-%s is read only by %s, and this run is %s", f.Name, strings.Join(f.Modes, ", "), strings.Join(modes, ", "))
		}
	}
	return nil
}

// Refuse writes err as one line and returns the exit status: 0 for -h,
// 2 for anything else.
func (c *Command) Refuse(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintf(c.Stderr, "%s: %v\n", c.Name, err)
	return 2
}
