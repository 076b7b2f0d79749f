// Command arqtrace generates synthetic vantage-point traces (the stand-in
// for the paper's 7-day Gnutella capture, §IV-A) and reports the import
// pipeline's cleaning statistics.
//
//	arqtrace -pairs 100000 -out pairs.jsonl       # pair stream for arqsim
//	arqtrace -raw -queries 500000 -out capture.jsonl  # raw capture (queries+replies), also read by arqsim
//	arqtrace -raw -queries 500000 -stats          # just the §IV-A style counts
//
// A flag the mode does not read, or a count below 1 (see flags), exits 2
// with one line.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"arq/internal/cli"
	"arq/internal/db"
	"arq/internal/trace"
	"arq/internal/tracegen"
)

type options struct {
	out            string
	pairs, queries int
	seed           uint64
	raw, stats     bool
}

// flags is the flag table; its modes are pairs, capture and stats.
func (o *options) flags() []cli.Flag {
	return []cli.Flag{
		cli.Var(&o.out, "out", "", "output JSONL file (default stdout)").In("pairs", "capture"),
		cli.Var(&o.pairs, "pairs", 100_000, "query-reply pairs to generate").AtLeast(1).In("pairs"),
		cli.Var(&o.raw, "raw", false, "generate a raw capture (queries and replies) instead of pairs").In("capture", "stats"),
		cli.Var(&o.queries, "queries", 500_000, "queries to generate (with -raw)").AtLeast(1).In("capture", "stats"),
		cli.Var(&o.seed, "seed", 1, "generator seed"),
		cli.Var(&o.stats, "stats", false, "with -raw: run the import pipeline and print its statistics only").In("stats"),
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	c := &cli.Command{Name: "arqtrace", Stderr: stderr, Flags: o.flags()}
	err := c.Parse(args)
	if mode := "pairs"; err == nil {
		if o.raw {
			mode = "capture"
		}
		if o.raw && o.stats {
			mode = "stats"
		}
		err = c.Check(mode)
	}
	if err != nil {
		return c.Refuse(err)
	}
	if err := o.generate(stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "arqtrace:", err)
		return 1
	}
	return 0
}

func (o *options) generate(stdout, stderr io.Writer) (err error) {
	cfg := tracegen.PaperProfile()
	cfg.Seed = o.seed
	g := tracegen.New(cfg)

	w := stdout
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer func() { err = errors.Join(err, f.Close()) }()
		w = f
	}

	if !o.raw {
		tw := trace.NewWriter(w)
		for i := 0; i < o.pairs; i++ {
			if err := tw.WritePair(g.NextPair()); err != nil {
				return err
			}
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %d pairs\n", o.pairs)
		return nil
	}

	qs, rs := g.GenerateRaw(o.queries)
	if o.stats {
		imp, err := db.Import(qs, rs)
		if err != nil {
			return err
		}
		s := imp.Stats
		fmt.Fprintf(stdout, "raw queries:             %d\n", s.RawQueries)
		fmt.Fprintf(stdout, "duplicate GUIDs removed: %d\n", s.DuplicateGUIDs)
		fmt.Fprintf(stdout, "queries kept:            %d\n", s.KeptQueries)
		fmt.Fprintf(stdout, "raw replies:             %d\n", s.RawReplies)
		fmt.Fprintf(stdout, "replies without query:   %d\n", s.UnmatchedReplies)
		fmt.Fprintf(stdout, "query-reply pairs:       %d\n", s.Pairs)
		return nil
	}
	tw := trace.NewWriter(w)
	ri := 0
	for _, q := range qs {
		if err := tw.WriteQuery(q); err != nil {
			return err
		}
		// Interleave replies in arrival order relative to queries.
		for ri < len(rs) && rs[ri].Time <= q.Time+1 && rs[ri].GUID <= q.GUID {
			if err := tw.WriteReply(rs[ri]); err != nil {
				return err
			}
			ri++
		}
	}
	for ; ri < len(rs); ri++ {
		if err := tw.WriteReply(rs[ri]); err != nil {
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %d queries and %d replies\n", len(qs), len(rs))
	return nil
}
