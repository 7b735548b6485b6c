// Command mlperf-telemetry inspects the artifacts the other tools write
// with -metrics and -manifest: it renders run manifests as tables,
// validates manifests and Prometheus metric files against their schemas,
// and merges Chrome traces into one multi-process document.
//
//	mlperf-telemetry summarize [-top N] run.json
//	mlperf-telemetry validate run.json out.prom trace.json flight.json ...
//	mlperf-telemetry merge -out merged.json a.json b.json ...
//	mlperf-telemetry stitch -out fleet.json front.json backend0.json backend1.json
//
// stitch joins per-process span traces (the -trace-out artifacts) into
// one end-to-end Chrome trace: spans sharing a trace ID line up across
// processes, cross-process parentage is resolved via the wire IDs the
// traceparent header carried at runtime, and flow arrows connect each
// RPC span to the remote request span it caused.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"mlperf/internal/atomicfile"
	"mlperf/internal/report"
	"mlperf/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "summarize":
		err = summarize(os.Args[2:])
	case "validate":
		err = validate(os.Args[2:])
	case "merge":
		err = merge(os.Args[2:])
	case "stitch":
		err = stitch(os.Args[2:])
	default:
		usage()
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlperf-telemetry:", err)
		os.Exit(1)
	}
}

// summarize renders one manifest: provenance, configuration, and the
// largest metrics by absolute value.
func summarize(args []string) error {
	fs := flag.NewFlagSet("summarize", flag.ContinueOnError)
	top := fs.Int("top", 15, "metrics to show (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("summarize wants exactly one manifest file")
	}
	m, err := readManifest(fs.Arg(0))
	if err != nil {
		return err
	}

	run := report.NewTable("run manifest — "+m.Tool, "field", "value")
	run.AddRow("schema version", m.Version)
	if m.StartedAt != "" {
		run.AddRow("started at", m.StartedAt)
	}
	if m.Hostname != "" {
		run.AddRow("hostname", m.Hostname)
	}
	if m.WallSeconds > 0 {
		run.AddRow("wall time", fmt.Sprintf("%.2f s", m.WallSeconds))
	}
	if m.SimulatedSeconds > 0 {
		run.AddRow("simulated time", fmt.Sprintf("%.1f s", m.SimulatedSeconds))
	}
	if m.Seed != 0 {
		run.AddRow("seed", strconv.FormatInt(m.Seed, 10))
	}
	if m.FaultPlanHash != "" {
		run.AddRow("fault plan", m.FaultPlanHash[:12]+"…")
	}
	if m.Cells > 0 {
		run.AddRow("cells", strconv.Itoa(m.Cells))
	}
	if m.CacheHits+m.CacheMisses > 0 {
		run.AddRow("cache", fmt.Sprintf("%d hits / %d misses", m.CacheHits, m.CacheMisses))
	}
	run.AddRow("spans", strconv.Itoa(m.Spans))
	run.AddRow("metrics", strconv.Itoa(len(m.Metrics)))
	fmt.Print(run.String())

	if len(m.Config) > 0 {
		keys := make([]string, 0, len(m.Config))
		for k := range m.Config {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		cfg := report.NewTable("configuration", "flag", "value")
		for _, k := range keys {
			cfg.AddRow(k, m.Config[k])
		}
		fmt.Println()
		fmt.Print(cfg.String())
	}

	if len(m.Metrics) > 0 {
		mv := make([]telemetry.MetricValue, len(m.Metrics))
		copy(mv, m.Metrics)
		sort.SliceStable(mv, func(i, j int) bool {
			return math.Abs(mv[i].Value) > math.Abs(mv[j].Value)
		})
		if *top > 0 && len(mv) > *top {
			mv = mv[:*top]
		}
		tbl := report.NewTable(fmt.Sprintf("top %d metrics by magnitude", len(mv)),
			"metric", "type", "value", "count")
		for _, v := range mv {
			count := ""
			if v.Type == "histogram" {
				count = strconv.FormatInt(v.Count, 10)
			}
			tbl.AddRow(v.Name+v.Labels, v.Type, formatValue(v), count)
		}
		fmt.Println()
		fmt.Print(tbl.String())
	}
	return nil
}

// validate checks each file against its schema, sniffing manifests
// (JSON) from metric files (Prometheus text) by the leading byte.
func validate(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("validate wants at least one file")
	}
	failed := 0
	for _, path := range args {
		kind, err := validateFile(path)
		if err != nil {
			failed++
			fmt.Printf("%-30s FAIL  %v\n", path, err)
			continue
		}
		fmt.Printf("%-30s ok    (%s)\n", path, kind)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d files invalid", failed, len(args))
	}
	return nil
}

func validateFile(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	if len(data) > 0 && data[0] == '{' {
		// JSON artifacts are sniffed by their distinguishing top-level
		// keys: traceEvents = Chrome trace, entries+tool = flight dump,
		// anything else = run manifest.
		switch {
		case bytes.Contains(data, []byte(`"traceEvents"`)):
			n, err := telemetry.ValidateChromeTrace(data)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("chrome trace, %d spans", n), nil
		case bytes.Contains(data, []byte(`"entries"`)) && bytes.Contains(data, []byte(`"tool"`)):
			d, err := telemetry.ParseFlightDump(data)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("flight dump, %d entries", len(d.Entries)), nil
		}
		if _, err := telemetry.ParseManifest(data); err != nil {
			return "", err
		}
		return "manifest", nil
	}
	fams, err := telemetry.ParsePrometheus(strings.NewReader(string(data)))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("prometheus, %d families", len(fams)), nil
}

// stitch joins per-process span traces into one end-to-end Chrome
// trace, resolving cross-process parentage via the wire IDs recorded
// at runtime. Unlike merge (which only renumbers pids), stitch
// validates: duplicate wire IDs and malformed span forests are errors,
// and unresolved remote parents are reported as orphans.
func stitch(args []string) error {
	fs := flag.NewFlagSet("stitch", flag.ContinueOnError)
	out := fs.String("out", "", "stitched Chrome trace output path (default: stdout)")
	strict := fs.Bool("strict", false, "fail when any remote parent cannot be resolved (orphans)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("stitch wants at least one per-process trace file")
	}
	var docs []telemetry.NamedTrace
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		spans, perr := telemetry.ParseSpansChromeTrace(f)
		f.Close()
		if perr != nil {
			return fmt.Errorf("%s: %v", path, perr)
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		docs = append(docs, telemetry.NamedTrace{Name: name, Spans: spans})
	}
	var rep *telemetry.StitchReport
	write := func(w io.Writer) (err error) {
		rep, err = telemetry.WriteStitchedChromeTrace(w, docs)
		return err
	}
	if err := writeOut(*out, write); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "stitched %d processes: %d spans, %d traces, %d cross-process links, %d orphans\n",
		rep.Processes, rep.Spans, rep.Traces, rep.CrossLinks, len(rep.Orphans))
	for _, o := range rep.Orphans {
		fmt.Fprintf(os.Stderr, "  orphan: %s\n", o)
	}
	if *strict && len(rep.Orphans) > 0 {
		return fmt.Errorf("%d orphaned remote parents", len(rep.Orphans))
	}
	return nil
}

// merge combines Chrome-trace documents into one, re-numbering each
// input's pid so the tracks sit side by side in chrome://tracing.
func merge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	out := fs.String("out", "", "merged Chrome trace output path (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("merge wants at least one trace file")
	}
	var readers []io.Reader
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		readers = append(readers, f)
		closers = append(closers, f)
	}
	if err := writeOut(*out, func(w io.Writer) error {
		return telemetry.MergeChromeTraces(w, readers...)
	}); err != nil {
		return err
	}
	if *out != "" {
		fmt.Printf("merged %d traces into %s\n", fs.NArg(), *out)
	}
	return nil
}

// writeOut writes path with write, whole or not at all, or stdout when
// path is "".
func writeOut(path string, write func(io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	return atomicfile.Write(path, write)
}

func readManifest(path string) (*telemetry.Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return telemetry.ParseManifest(data)
}

// formatValue prints counters as integers and everything else with a
// magnitude-appropriate precision.
func formatValue(v telemetry.MetricValue) string {
	if v.Type == "counter" {
		return strconv.FormatInt(int64(v.Value), 10)
	}
	switch av := math.Abs(v.Value); {
	case av != 0 && av < 0.01:
		return fmt.Sprintf("%.3g", v.Value)
	case av >= 1e6:
		return fmt.Sprintf("%.4g", v.Value)
	default:
		return fmt.Sprintf("%.3f", v.Value)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: mlperf-telemetry <subcommand>
  summarize [-top N] <run.json>    render a run manifest and its largest metrics
  validate <file> ...              schema-check manifests, Prometheus files, Chrome traces, flight dumps
  merge [-out F] <trace.json> ...  merge Chrome traces into one document
  stitch [-out F] [-strict] <t>... join per-process span traces into one end-to-end trace`)
}
