// Command tpubench regenerates every table and figure of the paper's
// evaluation from the simulator:
//
//	tpubench            # everything
//	tpubench -only t3   # one section (t1-t8, f5-f11, ...)
//	tpubench -csv       # the plotting data as CSV, roofline curves last
//
// The first line names the matrix kernel rung the host runs (amx,
// avx512vnni, avx2 or swar): the kernel-bound numbers move with it.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"

	"tpusim/internal/experiments"
	"tpusim/internal/systolic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tpubench: ")
	only := flag.String("only", "", "run a single section: "+experiments.SectionIDs()+" (default: all)")
	csv := flag.Bool("csv", false, "emit machine-readable CSV (rooflines, t3, t6, f10, f11, batch sweep, SLA, roofline curves) instead of the full text report")
	flag.Parse()

	if *csv {
		out, err := experiments.CSV()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("# kernel %s\n%s", systolic.Kernel(), out)
		return
	}

	sections := experiments.Sections
	if *only != "" {
		i := slices.IndexFunc(sections, func(s experiments.Section) bool { return s.ID == *only })
		if i < 0 {
			log.Printf("unknown experiment %q (want one of %s)", *only, experiments.SectionIDs())
			os.Exit(2)
		}
		sections = sections[i : i+1]
	}
	fmt.Printf("kernel: %s\n\n", systolic.Kernel())
	for _, s := range sections {
		out, err := s.Render()
		if err != nil {
			log.Fatalf("%s: %v", s.ID, err)
		}
		fmt.Printf("== %s: %s ==\n%s\n", s.ID, s.Title, out)
	}
}
