// Package fsx holds the one sanctioned implementation of the repo's
// durable-write idiom: every byte that lands on a final content-addressed
// path — verdict records, frontier pages, checkpoint manifests, persisted
// job documents — goes to a temporary sibling in the same directory first,
// is synced and closed, and only then renamed into place. A crash at any
// point leaves either the previous file or the new one, plus at worst a
// stale `*.tmp` sibling that the owning package's startup scan quarantines.
//
// The idiom used to be hand-rolled in internal/{store,pager,ckpt,svc};
// those copies had drifted (none synced, one swallowed the rename error).
// The atomicwrite analyzer in internal/lint now enforces that these
// packages write through AtomicWrite (or AtomicWriteChunks, the same
// idiom over several buffers) and nothing else.
package fsx

import (
	"fmt"
	"os"
	"path/filepath"
)

// TmpExt is the suffix every in-flight temporary file carries. Startup
// scans (internal/store, internal/svc) treat any leftover `*.tmp` file as
// a crashed write: never a valid record, safe to quarantine.
const TmpExt = ".tmp"

// AtomicWrite writes data to path atomically: it creates a uniquely-named
// temporary sibling `<base>.*.tmp` in path's directory, writes and syncs
// the data, closes the file, sets perm, and renames it over path. On any
// failure the temporary file is removed (best-effort) and no partial write
// is ever visible at path.
//
// The temporary file lives in the same directory as the target, so the
// rename is a same-filesystem atomic replace, and a crash can only leave a
// `*.tmp` sibling — which directory scans recognize by TmpExt.
func AtomicWrite(path string, data []byte, perm os.FileMode) error {
	return AtomicWriteChunks(path, perm, data)
}

// AtomicWriteChunks is AtomicWrite of the concatenation of chunks, which
// are written one after another rather than concatenated in memory, so a
// large payload needs no framed copy while it is synced.
func AtomicWriteChunks(path string, perm os.FileMode, chunks ...[]byte) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".*"+TmpExt)
	if err != nil {
		return fmt.Errorf("atomic write %s: %w", path, err)
	}
	tmp := f.Name()
	fail := func(op string, err error) error {
		f.Close() // no-op if already closed
		//topocon:allow quarantine -- the failed write's own tmp sibling: never a visible record, nothing to preserve
		os.Remove(tmp)
		return fmt.Errorf("atomic write %s: %s: %w", path, op, err)
	}
	for _, c := range chunks {
		if _, err := f.Write(c); err != nil {
			return fail("write", err)
		}
	}
	// Sync before rename: the rename must never be durable before the data
	// it commits (a crash between the two would atomically install an empty
	// or truncated file, defeating the whole idiom).
	if err := f.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := f.Close(); err != nil {
		return fail("close", err)
	}
	if err := os.Chmod(tmp, perm); err != nil {
		return fail("chmod", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fail("rename", err)
	}
	return nil
}

// QuarantineDir is the subdirectory of a data directory that collects
// files renamed aside as corrupt or stale.
const QuarantineDir = "quarantine"

// Quarantine renames the file filepath.Base(name) of dir into
// dir/quarantine/name, creating the directories it needs. Bad data is
// moved aside for inspection, never deleted. A name with a directory part
// groups several files under one subdirectory of quarantine/: ckpt moves
// a whole checkpoint with names like "ckpt.<stamp>/ckpt.manifest".
// Counting and logging failures stays with the caller.
func Quarantine(dir, name string) error {
	dst := filepath.Join(dir, QuarantineDir, name)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	return os.Rename(filepath.Join(dir, filepath.Base(name)), dst)
}
