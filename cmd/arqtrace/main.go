// Command arqtrace generates synthetic vantage-point traces (the stand-in
// for the paper's 7-day Gnutella capture, §IV-A) and reports the import
// pipeline's cleaning statistics.
//
//	arqtrace -pairs 100000 -out pairs.jsonl       # pair stream for arqsim
//	arqtrace -raw -queries 500000 -out capture.jsonl  # raw capture (queries+replies), also read by arqsim
//	arqtrace -raw -queries 500000 -stats          # just the §IV-A style counts
package main

import (
	"flag"
	"fmt"
	"os"

	"arq/internal/db"
	"arq/internal/trace"
	"arq/internal/tracegen"
)

var (
	out     = flag.String("out", "", "output JSONL file (default stdout; ignored with -stats)")
	pairs   = flag.Int("pairs", 100_000, "query-reply pairs to generate (pair mode)")
	raw     = flag.Bool("raw", false, "generate a raw capture (queries and replies) instead of pairs")
	queries = flag.Int("queries", 500_000, "queries to generate (raw mode)")
	seed    = flag.Uint64("seed", 1, "generator seed")
	stats   = flag.Bool("stats", false, "with -raw: run the import pipeline and print its statistics only")
)

func main() {
	flag.Parse()
	if err := checkCounts(*pairs, *queries, *raw, *stats); err != nil {
		fmt.Fprintln(os.Stderr, "arqtrace:", err)
		os.Exit(2)
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// checkCounts rejects a pair or query count below 1, and -stats without
// -raw: -queries -5 used to panic sizing the capture, -pairs -3 reported
// "wrote -3 pairs", and -stats, which means something only for a raw
// capture, wrote the pair stream to stdout and ignored -out.
func checkCounts(pairs, queries int, raw, stats bool) error {
	if pairs < 1 {
		return fmt.Errorf("-pairs must be at least 1, got %d", pairs)
	}
	if queries < 1 {
		return fmt.Errorf("-queries must be at least 1, got %d", queries)
	}
	if stats && !raw {
		return fmt.Errorf("-stats reports on a raw capture and needs -raw")
	}
	return nil
}

func run() error {
	cfg := tracegen.PaperProfile()
	cfg.Seed = *seed
	g := tracegen.New(cfg)

	var w *os.File = os.Stdout
	if *out != "" && !*stats {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	if !*raw {
		tw := trace.NewWriter(w)
		for i := 0; i < *pairs; i++ {
			if err := tw.WritePair(g.NextPair()); err != nil {
				return err
			}
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d pairs\n", *pairs)
		return nil
	}

	qs, rs := g.GenerateRaw(*queries)
	if *stats {
		imp, err := db.Import(qs, rs)
		if err != nil {
			return err
		}
		s := imp.Stats
		fmt.Printf("raw queries:             %d\n", s.RawQueries)
		fmt.Printf("duplicate GUIDs removed: %d\n", s.DuplicateGUIDs)
		fmt.Printf("queries kept:            %d\n", s.KeptQueries)
		fmt.Printf("raw replies:             %d\n", s.RawReplies)
		fmt.Printf("replies without query:   %d\n", s.UnmatchedReplies)
		fmt.Printf("query-reply pairs:       %d\n", s.Pairs)
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
	fmt.Fprintf(os.Stderr, "wrote %d queries and %d replies\n", len(qs), len(rs))
	return nil
}
