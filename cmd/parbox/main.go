// Command parbox is the workflow CLI of the library:
//
//	parbox gen   -mb 2 -seed 1 -out doc.xml
//	    generate an XMark-style document
//
//	parbox eval  -doc doc.xml -q '//item[quantity]'
//	    centralized evaluation of a Boolean XPath query
//
//	parbox split -doc doc.xml -n 3 -sites S0,S1,S2 -out work/
//	    fragment a document into n pieces, write one XML file per
//	    fragment plus a manifest (edit the site addresses, then start
//	    parbox-site daemons and query with `parbox remote`)
//
//	parbox run   -doc doc.xml -n 4 -sites 3 -algo parbox -q '//item'
//	    fragment, deploy on an in-process simulated cluster, evaluate
//	    with any algorithm and print the full report
//
//	parbox remote -manifest work/manifest.txt -q '//item' -algo parbox
//	    coordinate a query over running parbox-site daemons via TCP
package main

import (
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
		err = cmdGen(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "split":
		err = cmdSplit(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "remote":
		err = cmdRemote(os.Args[2:])
	case "health":
		err = cmdHealth(os.Args[2:])
	case "top":
		err = cmdTop(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "parbox: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "parbox %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: parbox <gen|eval|split|run|remote|health|top> [flags]

  gen     generate an XMark-style document        (-mb -seed -beacon -out)
  eval    centralized Boolean XPath evaluation    (-doc -q)
  split   fragment a document + write a manifest  (-doc -n -sites -out -seed)
  run     evaluate on an in-process cluster       (-doc -n -sites -algo -q -seed)
  remote  coordinate over TCP parbox-site daemons (-manifest -algo -q)
  health  probe a manifest's sites over TCP and
          print per-site up/down + RTT            (-manifest -timeout)
  top     scrape sites' live counters and print the
          visits/messages/bytes/steps table       (-manifest -watch -timeout)

run 'parbox <subcommand> -h' for details`)
}
