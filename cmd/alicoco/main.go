// Command alicoco builds the e-commerce cognitive concept net end-to-end
// from the synthetic testbed, prints Table-2-style statistics, and manages
// frozen serving snapshots.
//
// Usage:
//
//	alicoco [-scale small|default] [-query "outdoor barbecue"]
//	alicoco snapshot save [-scale small|default] [-shards N] [-retain 4] -out storedir
//	alicoco snapshot load -in storedir [-query "outdoor barbecue"]
//	alicoco snapshot verify storedir
//	alicoco metrics lint <file|->
//
// `snapshot save` builds the net and commits its frozen serving snapshot
// as a new generation of the snapshot catalog at -out: N (default 1)
// independently reloadable shard files plus a checksummed manifest in a
// gen-NNNNNN directory, named by the store's CATALOG (serve it with
// `cocoserve -snapshot-dir`). Repeated saves into the same store append
// generations; -retain bounds how many the catalog keeps. `snapshot load`
// restores the newest generation of a catalog without rebuilding (cold
// start proportional to disk bandwidth) and can answer queries against
// it. `snapshot verify` re-hashes every file of every committed
// generation against its manifest and catalog entry, reporting per file
// and exiting non-zero on any mismatch, without modifying the store. Every
// directory argument must be a catalog root; a bare generation directory
// or a flat snapshot directory is rejected.
//
// `metrics lint` strict-parses a Prometheus text exposition (a /metrics
// capture, or stdin with `-`) with the same validator the load driver's
// cross-check uses, exiting non-zero on any format violation — CI curls
// the live /metrics through it.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"alicoco"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "snapshot" {
		if len(os.Args) > 2 {
			switch os.Args[2] {
			case "save":
				snapshotSave(os.Args[3:])
				return
			case "load":
				snapshotLoad(os.Args[3:])
				return
			case "verify":
				snapshotVerify(os.Args[3:])
				return
			}
		}
		fmt.Fprintln(os.Stderr, "usage: alicoco snapshot save|load|verify [flags]")
		os.Exit(2)
	}
	if len(os.Args) > 1 && os.Args[1] == "metrics" {
		if len(os.Args) > 2 && os.Args[2] == "lint" {
			metricsLint(os.Args[3:])
			return
		}
		fmt.Fprintln(os.Stderr, "usage: alicoco metrics lint <file|->")
		os.Exit(2)
	}

	scale := flag.String("scale", "default", "build scale: small or default")
	query := flag.String("query", "", "optionally run one search query against the built net")
	flag.Parse()
	if flag.NArg() > 0 {
		// Catches e.g. `alicoco -scale small snapshot save`: the subcommand
		// must come first, or it would be silently ignored here.
		fmt.Fprintf(os.Stderr, "unexpected argument %q (subcommands go before flags: alicoco snapshot save|load [flags])\n", flag.Arg(0))
		os.Exit(2)
	}

	log.Printf("building AliCoCo (scale=%s)...", *scale)
	coco, err := alicoco.Build(scaleOptions(*scale))
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	fmt.Println(coco.Stats().Render())
	runQuery(coco, *query)
}

func rejectExtraArgs(fs *flag.FlagSet) {
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", fs.Arg(0))
		os.Exit(2)
	}
}

func scaleOptions(scale string) alicoco.Options {
	if scale == "small" {
		return alicoco.Small()
	}
	return alicoco.Default()
}

// snapshotSave builds the net and commits its frozen serving snapshot as a
// new catalog generation.
func snapshotSave(args []string) {
	fs := flag.NewFlagSet("snapshot save", flag.ExitOnError)
	scale := fs.String("scale", "default", "build scale: small or default")
	out := fs.String("out", "snapshots", "snapshot catalog root to commit the new generation into")
	shards := fs.Int("shards", 1, "shards to partition the frozen net into")
	retain := fs.Int("retain", 0, "committed generations the snapshot store keeps (0 means the default window)")
	fs.Parse(args)
	rejectExtraArgs(fs)

	log.Printf("building AliCoCo (scale=%s)...", *scale)
	start := time.Now()
	coco, err := alicoco.Build(scaleOptions(*scale))
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	log.Printf("built in %v", time.Since(start).Round(time.Millisecond))
	man, gen, err := coco.SaveShardsRetain(*out, *shards, *retain)
	if err != nil {
		log.Fatalf("save shards: %v", err)
	}
	log.Printf("snapshot committed to %s/ as generation %d (%d shards, serve with cocoserve -snapshot-dir)",
		*out, gen.ID, man.NumShards())
	fmt.Println(coco.Stats().Render())
}

// snapshotLoad restores the newest generation of a snapshot catalog and
// optionally queries it.
func snapshotLoad(args []string) {
	fs := flag.NewFlagSet("snapshot load", flag.ExitOnError)
	in := fs.String("in", "snapshots", "snapshot catalog root to load the newest generation of")
	query := fs.String("query", "", "optionally run one search query against the loaded net")
	fs.Parse(args)
	rejectExtraArgs(fs)

	start := time.Now()
	coco, err := alicoco.LoadShardedFrozen(*in)
	if err != nil {
		log.Fatalf("load snapshot: %v", err)
	}
	log.Printf("loaded generation %d of %s in %v", coco.ServingInfo().CatalogGen, *in, time.Since(start).Round(time.Millisecond))
	fmt.Println(coco.Stats().Render())
	runQuery(coco, *query)
}

func runQuery(coco *alicoco.CoCo, query string) {
	if query == "" {
		return
	}
	res := coco.Search(query, 8)
	fmt.Printf("\nquery: %q\n", query)
	for _, card := range res.Cards {
		fmt.Printf("  concept card: %s\n", card.Name)
		for _, it := range card.Items {
			fmt.Printf("    - %s\n", it.Title)
		}
	}
	if len(res.Cards) == 0 {
		for i, it := range res.Items {
			if i >= 8 {
				break
			}
			fmt.Printf("  item: %s\n", it.Title)
		}
	}
}
