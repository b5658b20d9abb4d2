// Command reprod is the long-running mining service: it hosts named
// sequence databases uploaded over HTTP and serves concurrent
// GSgrow/CloGSgrow/top-k mining requests, with client-cancellation support
// and an LRU result cache. See internal/server for the API.
//
// Usage:
//
//	reprod -addr :8372 -cache 64
//
// Then, from a client:
//
//	curl -X POST --data-binary @db.txt 'localhost:8372/v1/databases/mydb?format=tokens'
//	curl -X POST -d '{"closed":true,"minSupport":10}' localhost:8372/v1/databases/mydb/mine
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
)

func main() {
	if err := cli.ServeMain(flag.CommandLine, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "reprod:", err)
		os.Exit(1)
	}
}
