package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/vfs"
)

// replicationReport is the replication block of an inspect report: the
// role and lineage facts derivable from the directory alone. Lag and
// connectedness are runtime properties; they live on the serving node's
// /readyz, not here.
type replicationReport struct {
	// Role is "follower" for directories carrying a replica marker,
	// "primary" for everything else.
	Role string `json:"role"`
	// Upstream and Database identify the primary a follower replicates
	// from; both are empty on primaries.
	Upstream string `json:"upstream,omitempty"`
	Database string `json:"database,omitempty"`
	// Epoch is the lineage the directory's contents belong to: the
	// primary epoch a follower bootstrapped from, or the directory's own
	// minted epoch on a primary (absent until a server first hosts it).
	Epoch string `json:"epoch,omitempty"`
}

// inspectReport is the -json document: the storage report plus the
// replication block.
type inspectReport struct {
	*store.DirReport
	Replication *replicationReport `json:"replication,omitempty"`
}

// replicationInfo classifies dir by its marker files. Read-only, and
// never fails: a directory without markers is simply a primary with no
// recorded epoch.
func replicationInfo(dir string) *replicationReport {
	if m, err := repl.ReadMeta(vfs.OS, dir); err == nil {
		return &replicationReport{
			Role:     repro.RoleFollower,
			Upstream: m.Upstream,
			Database: m.Database,
			Epoch:    m.Epoch,
		}
	}
	rep := &replicationReport{Role: repro.RolePrimary}
	if data, err := os.ReadFile(filepath.Join(dir, server.EpochMetaFile)); err == nil {
		rep.Epoch = strings.TrimSpace(string(data))
	}
	return rep
}

// Inspect prints the storage state of a durable database directory: every
// checkpoint segment and WAL file with its validity, and the state a
// recovery would reconstruct — as text or, with asJSON, as one indented
// JSON document for fleet tooling. Read-only — nothing is truncated,
// created, or repaired — so it is safe to point at a directory a running
// service is using (the report is then a point-in-time view).
//
// Any damage — an unrecoverable directory, an invalid segment, an
// unreadable WAL, or a torn tail — returns an error (a nonzero exit for
// the command), even when recovery would still succeed by dropping or
// skipping the damaged parts: monitoring that runs inspect wants "disk
// rot detected" to be the exit code, not a string to grep out of a
// healthy-looking report.
func Inspect(dir string, asJSON bool, out io.Writer) error {
	rep, err := store.Inspect(vfs.OS, dir)
	if err != nil {
		return err
	}
	ri := replicationInfo(dir)
	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		enc.SetEscapeHTML(false)
		if err := enc.Encode(inspectReport{DirReport: rep, Replication: ri}); err != nil {
			return err
		}
		return inspectVerdict(rep)
	}
	fmt.Fprintf(out, "%s\n", rep.Dir)
	if ri.Role == repro.RoleFollower {
		fmt.Fprintf(out, "  replica of %s (database %q, epoch %s) — read-only; 'gsgrow promote' makes it a primary\n",
			ri.Upstream, ri.Database, ri.Epoch)
	} else if ri.Epoch != "" {
		fmt.Fprintf(out, "  primary (epoch %s)\n", ri.Epoch)
	}
	if len(rep.Segments) == 0 && len(rep.WALs) == 0 {
		fmt.Fprintln(out, "  no storage files (empty or not a database directory)")
	}
	for _, s := range rep.Segments {
		if s.Err != "" {
			fmt.Fprintf(out, "  segment gen=%d  %8d B  INVALID: %s\n", s.Generation, s.Size, s.Err)
			continue
		}
		fmt.Fprintf(out, "  segment gen=%d  %8d B  %d sequences\n", s.Generation, s.Size, s.Sequences)
	}
	for _, w := range rep.WALs {
		if w.Err != "" {
			fmt.Fprintf(out, "  wal     base=%d %8d B  UNREADABLE: %s\n", w.Base, w.Size, w.Err)
			continue
		}
		fmt.Fprintf(out, "  wal     base=%d %8d B  %d records", w.Base, w.Size, w.Records)
		if w.Torn {
			fmt.Fprintf(out, "  (torn tail after %d valid bytes; recovery drops it)", w.ValidBytes)
		}
		fmt.Fprintln(out)
	}
	if rep.RecoveryErr != "" {
		fmt.Fprintf(out, "  RECOVERY FAILS: %s\n", rep.RecoveryErr)
		return inspectVerdict(rep)
	}
	fmt.Fprintf(out, "  recovers to: generation %d (checkpoint %d + %d WAL batches), %d sequences, %d events, %d total length\n",
		rep.Generation, rep.SegmentGeneration, int(rep.Generation-max(rep.SegmentGeneration, 1)), rep.NumSequences, rep.DistinctEvents, rep.TotalLength)
	return inspectVerdict(rep)
}

// inspectVerdict turns the report into the command's exit status: nil
// only for a fully healthy directory.
func inspectVerdict(rep *store.DirReport) error {
	if rep.RecoveryErr != "" {
		return fmt.Errorf("recovery of %s would fail: %s", rep.Dir, rep.RecoveryErr)
	}
	if rep.Corrupt() {
		return fmt.Errorf("storage damage in %s: recovery succeeds but a segment or WAL is invalid or torn (see report)", rep.Dir)
	}
	return nil
}

// Compact opens the durable database in dir, checkpoints its current
// generation into a fresh segment (truncating the WAL), and closes it.
// Run it against directories of stopped services: bounding recovery time
// after a long append-heavy run, or shrinking a directory before backup.
// Running it concurrently with a live service on the same directory is
// not supported (two writers, one directory).
func Compact(dir string, out io.Writer) error {
	db, err := repro.Open(dir, repro.OpenOptions{
		// Explicit compaction only: the automatic threshold must not fire
		// a second checkpoint between ours and Close.
		CheckpointWALBytes: -1,
	})
	if err != nil {
		return err
	}
	defer db.Close()
	before := db.Persistence()
	if err := db.Compact(); err != nil {
		return err
	}
	after := db.Persistence()
	fmt.Fprintf(out, "%s: generation %d checkpointed (WAL %d B / %d records -> %d B)\n",
		dir, after.SegmentGeneration, before.WALBytes, before.WALRecords, after.WALBytes)
	return db.Close()
}

// Promote converts a follower's database directory into a primary in
// place: seals any torn WAL tail, checkpoints, and removes the replica
// marker, after which the directory accepts writes when a server next
// hosts it. This is the offline path for when the primary (or the
// follower process) is gone; against a running follower, use
// POST /v1/replication/{db}/promote instead. Running it concurrently
// with a live service on the same directory is not supported.
func Promote(dir string, out io.Writer) error {
	gen, err := repl.PromoteDir(dir, store.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: promoted to primary at generation %d\n", dir, gen)
	return nil
}
