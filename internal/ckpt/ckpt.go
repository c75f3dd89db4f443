// Package ckpt persists and resumes whole check.Analyzer sessions. A
// checkpoint directory holds two things:
//
//	pages/         the session pager's frontier pages (package pager, one
//	               per round, each individually checksummed); page t also
//	               carries the keys of the views its round introduced, so
//	               the pages rebuild the view interner on restore
//	ckpt.manifest  the versioned, checksummed manifest tying them together
//
// Manifest format (version 3, line-framed like internal/store records):
//
//	topocon-ckpt 3
//	fingerprint <ma.Fingerprint of the adversary at the resolved MaxHorizon>
//	meta <compact JSON of check.SessionSnapshot>
//	crc32 <8 lowercase hex digits, IEEE, over the three lines above>
//
// Version 3 marks checkpoints whose pages (format topocon-page2) carry the
// interner's keys; version-2 checkpoints (a separate interner.bin blob)
// and version-1 ones (full, unquotiented frontiers) are quarantined and
// recomputed rather than resumed (see manifestVersion).
//
// A save costs one round, not one session: Analyzer.Snapshot encodes and
// writes the page of the newest round only (every older round was
// persisted when it stopped being the newest, and is never rewritten),
// then Save writes the manifest — two writes, each through fsx's atomic
// write (temp sibling, sync, rename) — so a crash at any point leaves either the
// previous checkpoint or the new one, never a torn mix: the manifest is
// the commit point. The manifest's size grows with the snapshot's
// decomposition of the newest round, not with the depth of the session.
//
// Load validates strictly and never resumes wrong: a missing manifest is
// ErrNoCheckpoint; a corrupt manifest or page — every byte read back is
// CRC-verified, and the pages' views must rebuild the interner densely —
// moves the directory's contents to the quarantine/ subdirectory (bytes
// preserved, never deleted) and is reported as an error wrapping
// ErrNoCheckpoint so callers fall back to a clean recompute; an
// adversary-fingerprint or options mismatch is a hard error
// (ErrFingerprintMismatch / ErrConfigMismatch) — the checkpoint is intact
// but belongs to a different analysis, and silently recomputing would mask
// the misconfiguration.
package ckpt

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"topocon/internal/check"
	"topocon/internal/fsx"
	"topocon/internal/ma"
	"topocon/internal/pager"
)

const (
	// manifestVersion 3 marks checkpoints whose pages carry the view
	// interner's keys (DESIGN.md §9.2). A v2 checkpoint keeps them in a
	// separate interner.bin and its pages lack the views section; a v1
	// checkpoint's pages hold the full, unquotiented frontier (DESIGN.md
	// §13). Older manifests therefore fail decoding, quarantine, and
	// recompute.
	manifestVersion = 3
	manifestName    = "ckpt.manifest"
	pagesDirName    = "pages"
	quarantineName  = fsx.QuarantineDir
)

// ErrNoCheckpoint reports that the directory holds no usable checkpoint —
// either none was ever written, or what was there failed validation and has
// been quarantined. Callers start a fresh session.
var ErrNoCheckpoint = errors.New("ckpt: no usable checkpoint")

// ErrFingerprintMismatch reports an intact checkpoint written for a
// behaviourally different adversary.
var ErrFingerprintMismatch = errors.New("ckpt: adversary fingerprint mismatch")

// ErrConfigMismatch reports an intact checkpoint written under different
// analysis options than the caller's.
var ErrConfigMismatch = errors.New("ckpt: analysis options mismatch")

// PagesDir returns the pager directory inside a checkpoint directory; a
// session that wants to be checkpointable under dir must run its pager
// there.
func PagesDir(dir string) string { return filepath.Join(dir, pagesDirName) }

func manifestPath(dir string) string { return filepath.Join(dir, manifestName) }

// Exists reports whether dir holds a (syntactically present, not yet
// validated) checkpoint manifest.
func Exists(dir string) bool {
	_, err := os.Stat(manifestPath(dir))
	return err == nil
}

// Fresh prepares dir for a brand-new checkpointable session and returns its
// pager. Any previous checkpoint state — manifest, page files, anything an
// older format left behind — is moved into quarantine/ first: page ids are
// deterministic (round numbers), so stale pages from an abandoned session
// must never be visible to a new one.
func Fresh(dir string, hotBytes int64) (*pager.Pager, error) {
	if dir == "" {
		return nil, errors.New("ckpt: empty checkpoint directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if stale := staleState(dir); len(stale) > 0 {
		if err := quarantineState(dir, stale); err != nil {
			return nil, err
		}
	}
	pg, err := pager.New(pager.Config{Dir: PagesDir(dir), HotBytes: hotBytes})
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return pg, nil
}

// staleState lists what a checkpoint directory holds besides quarantine/
// and empty directories: the manifest and pages, and whatever an older
// checkpoint format or an interrupted write left behind. The directory
// belongs to the checkpoint (Remove deletes it whole), so retiring a
// checkpoint retires all of it.
func staleState(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if name == quarantineName {
			continue
		}
		if e.IsDir() {
			if sub, err := os.ReadDir(filepath.Join(dir, name)); err != nil || len(sub) == 0 {
				continue
			}
		}
		out = append(out, name)
	}
	return out
}

// quarantineState moves the named artifacts into a fresh stamped
// subdirectory of quarantine/, preserving the bytes for inspection.
func quarantineState(dir string, names []string) error {
	stamp := fmt.Sprintf("ckpt.%d", time.Now().UnixNano())
	for _, name := range names {
		if err := fsx.Quarantine(dir, filepath.Join(stamp, name)); err != nil {
			return fmt.Errorf("ckpt: quarantine %s: %w", name, err)
		}
	}
	return nil
}

// Save checkpoints the session into dir. The analyzer must run its pager
// under PagesDir(dir) (Fresh or Load set this up). The page of the newest
// round is persisted by the snapshot itself; Save then writes the
// manifest, atomically. Saving is only meaningful mid-run:
// Analyzer.Snapshot rejects unstarted and finished sessions.
func Save(dir string, a *check.Analyzer) error {
	pg := a.Pager()
	if pg == nil {
		return errors.New("ckpt: analyzer has no pager")
	}
	if pg.Dir() != PagesDir(dir) {
		return fmt.Errorf("ckpt: analyzer's pager runs under %s, not %s", pg.Dir(), PagesDir(dir))
	}
	snap, err := a.Snapshot()
	if err != nil {
		return err
	}
	meta, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("ckpt: encoding snapshot: %w", err)
	}
	fp := ma.Fingerprint(a.Adversary(), a.Options().MaxHorizon)
	return writeAtomic(manifestPath(dir), encodeManifest(fp, meta))
}

// Load resumes the session checkpointed in dir for the given adversary,
// with a fresh pager under the given hot-set budget. Extra options are for
// the new process's observers (WithProgress, WithParallelism); the analysis
// configuration always comes from the checkpoint. See the package comment
// for the validation and error contract.
func Load(dir string, adv ma.Adversary, hotBytes int64, extra ...check.AnalyzerOption) (*check.Analyzer, error) {
	data, err := os.ReadFile(manifestPath(dir))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoCheckpoint
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	corrupt := func(detail error) error {
		if qerr := quarantineState(dir, staleState(dir)); qerr != nil {
			return fmt.Errorf("ckpt: %v (and quarantining failed: %v): %w", detail, qerr, ErrNoCheckpoint)
		}
		return fmt.Errorf("ckpt: %v (checkpoint quarantined): %w", detail, ErrNoCheckpoint)
	}
	fp, snap, err := decodeManifest(data)
	if err != nil {
		return nil, corrupt(err)
	}
	if want := ma.Fingerprint(adv, snap.Options.MaxHorizon); fp != want {
		return nil, fmt.Errorf("%w: checkpoint %s vs adversary %q %s",
			ErrFingerprintMismatch, shortHex(fp), adv.Name(), shortHex(want))
	}
	pg, err := pager.New(pager.Config{Dir: PagesDir(dir), HotBytes: hotBytes})
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	a, err := check.RestoreAnalyzer(adv, snap, pg, extra...)
	if err != nil {
		// Structural failure, a corrupt/missing page or views that do not
		// rebuild the interner: the checkpoint cannot be trusted, so it is
		// retired and the caller recomputes.
		return nil, corrupt(err)
	}
	return a, nil
}

// Remove deletes the whole checkpoint directory. Call it once the session
// has reached its verdict and the verdict is persisted elsewhere.
//
//topocon:allow quarantine -- documented retire path: the caller asserts the verdict is already persisted, so the checkpoint holds no unique data
func Remove(dir string) error { return os.RemoveAll(dir) }

// Config drives RunCheck.
type Config struct {
	// Dir is the checkpoint directory.
	Dir string
	// HotBytes is the pager's hot-set budget (≤ 0: unlimited).
	HotBytes int64
	// Every checkpoints after every Every-th analysed horizon (default 1).
	Every int
	// Keep leaves the checkpoint directory in place after a successful
	// verdict instead of removing it.
	Keep bool
	// OnHorizon, if set, observes every analysed horizon (resumed sessions
	// only report horizons they actually analyse — checkpointed ones are
	// never re-extended).
	OnHorizon func(check.HorizonReport)
}

// Info reports what RunCheck did besides the verdict.
type Info struct {
	Resumed   bool  `json:"resumed"`
	ResumedAt int   `json:"resumedAt"` // horizon the resumed session continued from; -1 if fresh
	Written   int   `json:"checkpointsWritten"`
	Removed   bool  `json:"removed"`
	Runs      int   `json:"runs"` // deepest horizon's prefix-space size (successful runs)
	SaveErr   error `json:"-"`    // first mid-run checkpoint failure, if any (non-fatal)

	// PagerStats is the session pager's final traffic.
	PagerStats pager.Stats `json:"pagerStats"`
}

// RunCheck runs one adversary to a verdict with periodic checkpointing:
// resume from cfg.Dir when a valid checkpoint for this adversary and these
// options exists, start fresh otherwise, checkpoint every cfg.Every
// horizons from the progress hook, and — unless cfg.Keep — remove the
// checkpoint directory once the verdict is in. On a context cancellation
// the last completed horizon is checkpointed before returning, so a killed
// run loses at most the horizon in flight.
func RunCheck(ctx context.Context, adv ma.Adversary, cfg Config, opts check.Options, parallelism int) (*check.Result, *Info, error) {
	every := cfg.Every
	if every <= 0 {
		every = 1
	}
	info := &Info{ResumedAt: -1}
	var a *check.Analyzer
	sinceCkpt := 0
	progress := check.WithProgress(func(r check.HorizonReport) {
		if cfg.OnHorizon != nil {
			cfg.OnHorizon(r)
		}
		if sinceCkpt++; sinceCkpt >= every {
			if err := Save(cfg.Dir, a); err != nil {
				if info.SaveErr == nil {
					info.SaveErr = err
				}
			} else {
				info.Written++
				sinceCkpt = 0
			}
		}
	})

	a, err := Load(cfg.Dir, adv, cfg.HotBytes, check.WithParallelism(parallelism), progress)
	switch {
	case err == nil:
		info.Resumed = true
		info.ResumedAt = a.Horizon()
	case errors.Is(err, ErrNoCheckpoint):
		pg, ferr := Fresh(cfg.Dir, cfg.HotBytes)
		if ferr != nil {
			return nil, info, ferr
		}
		a, ferr = check.NewAnalyzer(adv,
			check.WithOptions(opts), check.WithParallelism(parallelism), check.WithPager(pg), progress)
		if ferr != nil {
			return nil, info, ferr
		}
	default:
		return nil, info, err
	}
	resolved, err := opts.Resolved()
	if err != nil {
		return nil, info, err
	}
	if a.Options() != resolved {
		return nil, info, fmt.Errorf("%w: checkpoint %+v vs requested %+v", ErrConfigMismatch, a.Options(), resolved)
	}

	res, err := a.Check(ctx)
	info.PagerStats = a.Pager().Stats()
	if err != nil {
		// Make the interruption durable: the last fully-analysed horizon may
		// postdate the last periodic checkpoint when Every > 1.
		if sinceCkpt > 0 && a.Horizon() > 0 && !a.Finished() {
			if serr := Save(cfg.Dir, a); serr == nil {
				info.Written++
			} else if info.SaveErr == nil {
				info.SaveErr = serr
			}
		}
		return nil, info, err
	}
	if s := a.SpaceAt(a.Horizon()); s != nil {
		info.Runs = s.Len()
	}
	if !cfg.Keep {
		if rerr := Remove(cfg.Dir); rerr == nil {
			info.Removed = true
		}
	}
	return res, info, nil
}

// writeAtomic writes data through fsx.AtomicWrite (temp sibling, sync,
// rename — the shared durable-write idiom) with this package's error prefix.
func writeAtomic(path string, data []byte) error {
	if err := fsx.AtomicWrite(path, data, 0o644); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

// encodeManifest renders the versioned, checksummed manifest bytes.
func encodeManifest(fp string, meta []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "topocon-ckpt %d\n", manifestVersion)
	fmt.Fprintf(&b, "fingerprint %s\n", fp)
	fmt.Fprintf(&b, "meta %s\n", meta)
	fmt.Fprintf(&b, "crc32 %08x\n", crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes()
}

// decodeManifest parses and fully validates manifest bytes. The version is
// checked before anything else, so an older manifest reports its version
// rather than a layout error.
func decodeManifest(data []byte) (fp string, snap *check.SessionSnapshot, err error) {
	lines := strings.Split(string(data), "\n")
	var version int
	if _, serr := fmt.Sscanf(lines[0], "topocon-ckpt %d", &version); serr != nil ||
		lines[0] != fmt.Sprintf("topocon-ckpt %d", version) {
		return "", nil, fmt.Errorf("bad header %q", lines[0])
	}
	if version != manifestVersion {
		return "", nil, fmt.Errorf("unsupported manifest version %d", version)
	}
	if len(lines) != 5 || lines[4] != "" {
		return "", nil, errors.New("manifest must be exactly 4 newline-terminated lines")
	}
	sumLine, ok := strings.CutPrefix(lines[3], "crc32 ")
	if !ok || len(sumLine) != 8 {
		return "", nil, fmt.Errorf("bad checksum line %q", lines[3])
	}
	body := strings.Join(lines[:3], "\n") + "\n"
	if want := fmt.Sprintf("%08x", crc32.ChecksumIEEE([]byte(body))); sumLine != want {
		return "", nil, fmt.Errorf("checksum mismatch (%s != %s)", sumLine, want)
	}
	fp, ok = strings.CutPrefix(lines[1], "fingerprint ")
	if !ok || fp == "" || strings.ContainsAny(fp, " \t\r") {
		return "", nil, fmt.Errorf("bad fingerprint line %q", lines[1])
	}
	meta, ok := strings.CutPrefix(lines[2], "meta ")
	if !ok {
		return "", nil, fmt.Errorf("bad meta line %q", lines[2])
	}
	dec := json.NewDecoder(strings.NewReader(meta))
	dec.DisallowUnknownFields()
	snap = new(check.SessionSnapshot)
	if derr := dec.Decode(snap); derr != nil {
		return "", nil, fmt.Errorf("decoding session meta: %v", derr)
	}
	if _, terr := dec.Token(); terr != io.EOF {
		return "", nil, errors.New("trailing data after session meta")
	}
	return fp, snap, nil
}

func shortHex(s string) string {
	if len(s) > 16 {
		return s[:16]
	}
	return s
}
