// Command experiments runs experiments from the paper-validation suite
// (E1-E17) and its extensions (X1-X8), printing tables and ASCII figures.
// With -out it also writes per-experiment CSVs and SVG figures plus
// report.md, the Markdown experiment report quoted in EXPERIMENTS.md.
//
// Usage:
//
//	experiments -list
//	experiments -run E3 -scale 0.5
//	experiments -run E3,E6,X1
//	experiments -run all,ext -out results/   # the full reproduction report
//
// Expect a few minutes of CPU time for the full suite at full scale.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mobilenet/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		list    = fs.Bool("list", false, "list available experiments")
		runIDs  = fs.String("run", "", "comma-separated experiment IDs (e.g. E3,X1), 'all' (E1-E17) or 'ext' (X1-X8)")
		scale   = fs.Float64("scale", 1.0, "problem-size scale in (0,1]")
		reps    = fs.Int("reps", 0, "replicates per sweep point (0 = experiment default)")
		seed    = fs.Uint64("seed", 1, "master seed")
		outDir  = fs.String("out", "", "directory for CSV/SVG outputs and report.md (empty = stdout only)")
		verbose = fs.Bool("v", false, "log per-point progress")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range append(experiments.All(), experiments.Extensions()...) {
			fmt.Printf("%-4s %-45s %s\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}
	if *runIDs == "" {
		return fmt.Errorf("nothing to do: pass -list or -run <ID|all|ext>[,...]")
	}

	var toRun []experiments.Experiment
	for _, id := range strings.Split(*runIDs, ",") {
		id = strings.TrimSpace(id)
		switch {
		case strings.EqualFold(id, "all"):
			toRun = append(toRun, experiments.All()...)
		case strings.EqualFold(id, "ext"):
			toRun = append(toRun, experiments.Extensions()...)
		default:
			e, ok := experiments.Get(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (try -list)", id)
			}
			toRun = append(toRun, e)
		}
	}

	params := experiments.Params{Scale: *scale, Reps: *reps, Seed: *seed}
	if *verbose {
		params.Log = os.Stderr
	}

	report := io.Discard
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*outDir, "report.md"))
		if err != nil {
			return err
		}
		defer f.Close()
		report = f
		fmt.Fprintf(report, "# Paper reproduction report\n\n")
		fmt.Fprintf(report, "Suite run at scale %.2f, seed %d, %s.\n\n", *scale, *seed,
			time.Now().Format("2006-01-02 15:04"))
	}

	summary := make([]string, 0, len(toRun))
	failures := 0
	for _, e := range toRun {
		start := time.Now()
		res, err := e.Run(params)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := res.WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if err := res.WriteMarkdown(report); err != nil {
			return err
		}
		summary = append(summary, fmt.Sprintf("%-4s %-4s %-45s (%.1fs)",
			res.ID, res.Verdict, e.Title, time.Since(start).Seconds()))
		if res.Verdict == experiments.VerdictFail {
			failures++
		}
		if *outDir != "" {
			if err := writeArtifacts(*outDir, res); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(report, "## Summary\n\n```\n%s\n```\n", strings.Join(summary, "\n"))
	if *outDir != "" {
		fmt.Printf("%s\n\nreport written to %s\n", strings.Join(summary, "\n"), filepath.Join(*outDir, "report.md"))
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) returned FAIL verdicts", failures)
	}
	return nil
}

func writeArtifacts(dir string, res *experiments.Result) error {
	for i, table := range res.Tables {
		name := filepath.Join(dir, fmt.Sprintf("%s_table%d.csv", strings.ToLower(res.ID), i+1))
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		if err := table.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	for i, fig := range res.Figures {
		name := filepath.Join(dir, fmt.Sprintf("%s_fig%d.svg", strings.ToLower(res.ID), i+1))
		if err := os.WriteFile(name, []byte(fig.SVG(640, 480)), 0o644); err != nil {
			return err
		}
	}
	return nil
}
