// Command randpriv is the CLI front end of the library: it generates
// synthetic correlated data, disguises it with the classic or improved
// randomization scheme, runs the reconstruction attacks, and regenerates
// the paper's figures.
//
// Usage:
//
//	randpriv gen        -n 1000 -m 20 -p 3 -out data.csv
//	randpriv perturb    -in data.csv -sigma 5 -out disguised.csv [-correlated] [-stream -chunk 4096]
//	randpriv attack     -original data.csv -disguised disguised.csv -sigma 5 [-stream -chunk 4096]
//	randpriv experiment -id 1 [-n 1000] [-skip-udr] [-sweep 5,20,40] [-csv out.csv]
//	randpriv utility    [-n 2000] [-m 20]
//	randpriv sweep      -data data.csv -spec spec.json [-out result.json]
//	randpriv sweep      -figure 1 [-n 1000] [-skip-udr] [-csv out.csv]
//
// 'sweep -figure N' and 'experiment -id N' are two spellings of one
// command: both run the figure through the assessment engine and print
// the same bytes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = runGen(os.Args[2:])
	case "perturb":
		err = runPerturb(os.Args[2:])
	case "attack":
		err = runAttack(os.Args[2:])
	case "experiment":
		err = runExperiment(os.Args[2:])
	case "utility":
		err = runUtility(os.Args[2:])
	case "sweep":
		err = runSweepCmd(os.Args[2:])
	case "smooth":
		err = runSmooth(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "randpriv: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if errors.Is(err, flag.ErrHelp) {
		// -h/-help: the flag set already printed its usage.
		os.Exit(0)
	}
	var uerr usageError
	if errors.As(err, &uerr) {
		// Parse failures were already reported by the flag set; keep the
		// traditional usage-error exit code.
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "randpriv: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `randpriv — privacy analysis of randomized data (Huang, Du & Chen, SIGMOD 2005)

Commands:
  gen         generate a synthetic correlated data set (CSV)
  perturb     disguise a data set with additive or correlated noise
  attack      run the reconstruction attacks and print a privacy report
  experiment  regenerate one of the paper's figures (1-4)
  utility     run the mining-utility comparison of the two schemes
  sweep       compile a parameter-grid spec into a shared-scan plan and run it
              (or, with -figure N, the same figure as 'experiment -id N')
  smooth      time-series attack: denoise a disguised CSV column-by-column

Run 'randpriv <command> -h' for per-command flags.
`)
}
