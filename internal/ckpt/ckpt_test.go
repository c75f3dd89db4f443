package ckpt

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"topocon/internal/check"
	"topocon/internal/graph"
	"topocon/internal/ma"
)

func seedAdversaries() []ma.Adversary {
	stable := ma.MustEventuallyStable("",
		[]graph.Graph{graph.Left, graph.Both}, []graph.Graph{graph.Right}, 1)
	return []ma.Adversary{
		ma.LossyLink2(),
		ma.LossyLink3(),
		ma.LossBounded(2, 1),
		ma.MustDeadlineStable(stable, 2),
		stable,
	}
}

// interruptedRun drives RunCheck with a context that cancels once killAt
// horizons have been analysed, simulating a mid-session kill right after a
// horizon commits. It returns whether the run was actually interrupted
// (fast-separating adversaries finish before the cancellation bites).
func interruptedRun(t *testing.T, adv ma.Adversary, dir string, opts check.Options, killAt int) bool {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{Dir: dir, HotBytes: 4 << 10, OnHorizon: func(r check.HorizonReport) {
		if r.Horizon >= killAt {
			cancel()
		}
	}}
	_, info, err := RunCheck(ctx, adv, cfg, opts, 1)
	if err == nil {
		return false
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("%s: interrupted run: %v", adv.Name(), err)
	}
	if info.Written == 0 {
		t.Fatalf("%s: interrupted run wrote no checkpoint", adv.Name())
	}
	if !Exists(dir) {
		t.Fatalf("%s: no manifest after interruption", adv.Name())
	}
	return true
}

// TestKillAndResumeEquivalence is the end-to-end resume contract at the
// checkpoint layer: kill a session after two horizons, resume it via
// RunCheck in the same directory, and require the verdict to be identical
// to an uninterrupted run's — with the resumed session starting exactly one
// horizon past the checkpoint (zero re-extension) and cleaning up its
// checkpoint directory on success.
func TestKillAndResumeEquivalence(t *testing.T) {
	opts := check.Options{MaxHorizon: 4}
	for _, adv := range seedAdversaries() {
		want, err := check.Consensus(adv, opts)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "ckpt")
		interrupted := interruptedRun(t, adv, dir, opts, 2)

		firstResumed := -1
		cfg := Config{Dir: dir, HotBytes: 4 << 10, OnHorizon: func(r check.HorizonReport) {
			if firstResumed < 0 {
				firstResumed = r.Horizon
			}
		}}
		got, info, err := RunCheck(context.Background(), adv, cfg, opts, 1)
		if err != nil {
			t.Fatalf("%s: resumed run: %v", adv.Name(), err)
		}
		if interrupted {
			if !info.Resumed || info.ResumedAt < 2 {
				t.Errorf("%s: run did not resume from the checkpoint (resumed=%v at %d)",
					adv.Name(), info.Resumed, info.ResumedAt)
			}
			if firstResumed >= 0 && firstResumed != info.ResumedAt+1 {
				t.Errorf("%s: resumed session re-extended: first analysed horizon %d after resuming at %d",
					adv.Name(), firstResumed, info.ResumedAt)
			}
		}
		if got.Verdict != want.Verdict || got.SeparationHorizon != want.SeparationHorizon ||
			got.BroadcastHorizon != want.BroadcastHorizon || got.Broadcaster != want.Broadcaster ||
			got.Exact != want.Exact {
			t.Errorf("%s: resumed %v sep=%d bcast=%d p*=%d vs uninterrupted %v sep=%d bcast=%d p*=%d",
				adv.Name(), got.Verdict, got.SeparationHorizon, got.BroadcastHorizon, got.Broadcaster,
				want.Verdict, want.SeparationHorizon, want.BroadcastHorizon, want.Broadcaster)
		}
		if (want.Map == nil) != (got.Map == nil) ||
			(want.Map != nil && (want.Map.Size() != got.Map.Size() || want.Map.Reference() != got.Map.Reference())) {
			t.Errorf("%s: decision maps differ after resume", adv.Name())
		}
		if !info.Removed || Exists(dir) {
			t.Errorf("%s: checkpoint not cleaned up after the verdict", adv.Name())
		}
	}
}

// TestResumeSurvivesRepeatedKills chains several kill/resume cycles on one
// directory — each resume continues strictly deeper and the final verdict
// still matches the uninterrupted run.
func TestResumeSurvivesRepeatedKills(t *testing.T) {
	adv := ma.LossyLink3()
	opts := check.Options{MaxHorizon: 5}
	want, err := check.Consensus(adv, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	deepest := 0
	for killAt := 1; killAt <= 3; killAt++ {
		if !interruptedRun(t, adv, dir, opts, killAt) {
			t.Fatalf("kill at horizon %d did not interrupt", killAt)
		}
		a, err := Load(dir, adv, 0)
		if err != nil {
			t.Fatalf("Load after kill %d: %v", killAt, err)
		}
		if a.Horizon() <= deepest-1 {
			t.Fatalf("kill %d: checkpoint regressed to horizon %d (was %d)", killAt, a.Horizon(), deepest)
		}
		deepest = a.Horizon()
	}
	got, info, err := RunCheck(context.Background(), adv, Config{Dir: dir}, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Resumed || got.Verdict != want.Verdict {
		t.Fatalf("final run: resumed=%v verdict=%v, want resumed with %v", info.Resumed, got.Verdict, want.Verdict)
	}
}

// corruptibleCheckpoint lays down a checkpoint for LossyLink3 killed after
// horizon 2 and returns its directory.
func corruptibleCheckpoint(t *testing.T) (string, check.Options) {
	t.Helper()
	opts := check.Options{MaxHorizon: 4}
	dir := filepath.Join(t.TempDir(), "ckpt")
	if !interruptedRun(t, ma.LossyLink3(), dir, opts, 2) {
		t.Fatal("setup run was not interrupted")
	}
	return dir, opts
}

// TestCorruptCheckpointQuarantinedAndRecomputed pins the never-a-wrong-
// resume contract for every artifact: truncating or bit-flipping the
// manifest, a page file or the views section a page carries, or losing a
// page, makes Load fail with ErrNoCheckpoint (artifacts quarantined, bytes
// preserved), and RunCheck falls back to a clean fresh recompute that
// still reaches the right verdict.
func TestCorruptCheckpointQuarantinedAndRecomputed(t *testing.T) {
	// mutate truncates the file at, or flips a bit in, the middle of the
	// byte range span picks out of it.
	mutate := func(t *testing.T, path string, truncate bool, span func([]byte) (int, int)) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := span(data)
		if truncate {
			data = data[:(lo+hi)/2]
		} else {
			data[(lo+hi)/2] ^= 0x40
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	whole := func(data []byte) (int, int) { return 0, len(data) }
	views := func(data []byte) (int, int) {
		_, v := pageSections(t, data)
		return v[0], v[1]
	}
	pageFile := func(dir string) string { return filepath.Join(PagesDir(dir), "round-001.page") }
	cases := map[string]func(t *testing.T, dir string){
		"manifest-truncated": func(t *testing.T, dir string) { mutate(t, manifestPath(dir), true, whole) },
		"manifest-bitflip":   func(t *testing.T, dir string) { mutate(t, manifestPath(dir), false, whole) },
		"page-truncated":     func(t *testing.T, dir string) { mutate(t, pageFile(dir), true, whole) },
		"page-bitflip":       func(t *testing.T, dir string) { mutate(t, pageFile(dir), false, whole) },
		"views-truncated":    func(t *testing.T, dir string) { mutate(t, pageFile(dir), true, views) },
		"views-bitflip":      func(t *testing.T, dir string) { mutate(t, pageFile(dir), false, views) },
		"page-missing": func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(PagesDir(dir), "round-002.page")); err != nil {
				t.Fatal(err)
			}
		},
		// A version-2 manifest is intact but its pages carry no views (the
		// interner lived in interner.bin). Rewrite the manifest with a v2
		// header (valid CRC) and require quarantine + recompute.
		"stale-version": func(t *testing.T, dir string) {
			data, err := os.ReadFile(manifestPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(string(data), "\n")
			lines[0] = "topocon-ckpt 2"
			body := strings.Join(lines[:3], "\n") + "\n"
			manifest := body + fmt.Sprintf("crc32 %08x\n", crc32.ChecksumIEEE([]byte(body)))
			if err := os.WriteFile(manifestPath(dir), []byte(manifest), 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			dir, opts := corruptibleCheckpoint(t)
			corrupt(t, dir)
			if _, err := Load(dir, ma.LossyLink3(), 0); !errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("Load on corrupt checkpoint: %v, want ErrNoCheckpoint", err)
			}
			if entries, err := os.ReadDir(filepath.Join(dir, quarantineName)); err != nil || len(entries) == 0 {
				t.Errorf("nothing quarantined (%v)", err)
			}
			res, info, err := RunCheck(context.Background(), ma.LossyLink3(), Config{Dir: dir}, opts, 1)
			if err != nil {
				t.Fatalf("fresh recompute: %v", err)
			}
			if info.Resumed {
				t.Error("RunCheck claims to have resumed a corrupt checkpoint")
			}
			if res.Verdict != check.VerdictImpossible {
				t.Errorf("recomputed verdict %v, want impossible", res.Verdict)
			}
		})
	}
}

// pageSections returns the byte ranges of a page file's column section and
// views section: the file opens with the page magic, the uvarint-framed
// page id and the payload length, and ends with a 4-byte checksum; the
// payload is the column section behind its length, then the views.
func pageSections(t *testing.T, data []byte) (cols, views [2]int) {
	t.Helper()
	off := len("topocon-page2\n")
	uvarint := func() int {
		v, k := binary.Uvarint(data[off:])
		if k <= 0 {
			t.Fatal("page file framing unreadable")
		}
		off += k
		return int(v)
	}
	off += uvarint() // page id
	uvarint()        // payload length
	colLen := uvarint()
	cols = [2]int{off, off + colLen}
	views = [2]int{off + colLen, len(data) - 4}
	if views[1]-views[0] < 2 {
		t.Fatalf("views section [%d, %d) in a %d-byte page", views[0], views[1], len(data))
	}
	return cols, views
}

// TestMismatchesAreHardErrors pins that an intact checkpoint for a
// different adversary or different options refuses to resume loudly — no
// silent recompute that would mask the misconfiguration.
func TestMismatchesAreHardErrors(t *testing.T) {
	dir, opts := corruptibleCheckpoint(t)
	if _, err := Load(dir, ma.LossyLink2(), 0); !errors.Is(err, ErrFingerprintMismatch) {
		t.Errorf("Load with wrong adversary: %v, want ErrFingerprintMismatch", err)
	}
	if _, _, err := RunCheck(context.Background(), ma.LossyLink2(), Config{Dir: dir}, opts, 1); !errors.Is(err, ErrFingerprintMismatch) {
		t.Errorf("RunCheck with wrong adversary: %v, want ErrFingerprintMismatch", err)
	}
	changed := opts
	changed.MaxRuns = 123456
	if _, _, err := RunCheck(context.Background(), ma.LossyLink3(), Config{Dir: dir}, changed, 1); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("RunCheck with changed options: %v, want ErrConfigMismatch", err)
	}
	// The checkpoint survives all three refusals intact.
	if a, err := Load(dir, ma.LossyLink3(), 0); err != nil || a.Horizon() < 2 {
		t.Errorf("checkpoint damaged by mismatch refusals: %v", err)
	}
}

// TestFreshArchivesStaleState pins that a fresh session never sees a stale
// session's pages: Fresh moves them into quarantine (preserved, not
// deleted) because page ids are deterministic round numbers.
func TestFreshArchivesStaleState(t *testing.T) {
	dir, _ := corruptibleCheckpoint(t)
	stalePages, err := filepath.Glob(filepath.Join(PagesDir(dir), "*.page"))
	if err != nil || len(stalePages) == 0 {
		t.Fatal("setup left no pages")
	}
	if _, err := Fresh(dir, 0); err != nil {
		t.Fatalf("Fresh over stale checkpoint: %v", err)
	}
	if Exists(dir) {
		t.Error("manifest survived Fresh")
	}
	if left, _ := filepath.Glob(filepath.Join(PagesDir(dir), "*.page")); len(left) != 0 {
		t.Errorf("%d stale pages still visible after Fresh", len(left))
	}
	var archived int
	filepath.Walk(filepath.Join(dir, quarantineName), func(path string, info os.FileInfo, err error) error {
		if err == nil && info != nil && !info.IsDir() && strings.HasSuffix(path, ".page") {
			archived++
		}
		return nil
	})
	if archived != len(stalePages) {
		t.Errorf("archived %d pages, want %d", archived, len(stalePages))
	}
}

// TestRunCheckEveryBatchesCheckpoints pins the Every knob: with Every = 3
// over 4 analysed horizons, only one periodic checkpoint is written
// mid-run, and a cancellation right after an unsaved horizon still makes it
// durable via the final best-effort save.
func TestRunCheckEveryBatchesCheckpoints(t *testing.T) {
	adv := ma.LossyLink3()
	opts := check.Options{MaxHorizon: 6}
	dir := filepath.Join(t.TempDir(), "ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, info, err := RunCheck(ctx, adv, Config{Dir: dir, Every: 3, OnHorizon: func(r check.HorizonReport) {
		if r.Horizon == 4 {
			cancel()
		}
	}}, opts, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run: %v, want context.Canceled", err)
	}
	// Horizon 3 was the periodic checkpoint; horizon 4 the interruption save.
	if info.Written != 2 {
		t.Errorf("wrote %d checkpoints, want 2", info.Written)
	}
	a, err := Load(dir, adv, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Horizon() != 4 {
		t.Errorf("checkpoint at horizon %d, want 4 (interruption made durable)", a.Horizon())
	}
}

// pageFiles lists the page file names of a checkpoint directory.
func pageFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(PagesDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// wantRounds is the page file names of rounds 1..h.
func wantRounds(h int) []string {
	names := make([]string, h)
	for i := range names {
		names[i] = fmt.Sprintf("round-%03d.page", i+1)
	}
	return names
}

// TestCheckpointLayout pins what a kept checkpoint directory holds: the
// manifest and one page per analysed round, nothing else (the pages carry
// the interner's keys; there is no interner file) — and that the pager
// counts exactly the page files it wrote, for a fresh session and for a
// resumed one, which writes only the rounds past its checkpoint and never
// rewrites a page it resumed from.
func TestCheckpointLayout(t *testing.T) {
	adv := ma.LossyLink3()
	opts := check.Options{MaxHorizon: 5}
	layout := func(t *testing.T, dir string, rounds int) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if strings.Join(names, " ") != manifestName+" "+pagesDirName {
			t.Errorf("checkpoint directory holds %v, want [%s %s]", names, manifestName, pagesDirName)
		}
		if got, want := strings.Join(pageFiles(t, dir), " "), strings.Join(wantRounds(rounds), " "); got != want {
			t.Errorf("pages/ holds %q, want %q", got, want)
		}
	}

	t.Run("fresh", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "ckpt")
		_, info, err := RunCheck(context.Background(), adv, Config{Dir: dir, Keep: true, HotBytes: 1}, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		layout(t, dir, opts.MaxHorizon)
		if info.PagerStats.PagesWritten != int64(opts.MaxHorizon) {
			t.Errorf("PagesWritten = %d for %d page files", info.PagerStats.PagesWritten, opts.MaxHorizon)
		}
	})

	t.Run("resumed", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "ckpt")
		if !interruptedRun(t, adv, dir, opts, 2) {
			t.Fatal("setup run was not interrupted")
		}
		kept := map[string]os.FileInfo{}
		for _, name := range pageFiles(t, dir) {
			st, err := os.Stat(filepath.Join(PagesDir(dir), name))
			if err != nil {
				t.Fatal(err)
			}
			kept[name] = st
		}
		firstResumed := -1
		cfg := Config{Dir: dir, Keep: true, HotBytes: 1, OnHorizon: func(r check.HorizonReport) {
			if firstResumed < 0 {
				firstResumed = r.Horizon
			}
		}}
		_, info, err := RunCheck(context.Background(), adv, cfg, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Resumed || len(kept) != info.ResumedAt {
			t.Fatalf("resumed=%v at %d over %d pages", info.Resumed, info.ResumedAt, len(kept))
		}
		if firstResumed != info.ResumedAt+1 {
			t.Errorf("resumed session re-extended: first analysed horizon %d after resuming at %d", firstResumed, info.ResumedAt)
		}
		layout(t, dir, opts.MaxHorizon)
		if want := int64(opts.MaxHorizon - info.ResumedAt); info.PagerStats.PagesWritten != want {
			t.Errorf("resumed PagesWritten = %d, want %d (the page files past the checkpoint)", info.PagerStats.PagesWritten, want)
		}
		for name, before := range kept {
			after, err := os.Stat(filepath.Join(PagesDir(dir), name))
			if err != nil {
				t.Fatal(err)
			}
			if !os.SameFile(before, after) {
				t.Errorf("%s was rewritten by the resumed session", name)
			}
		}
	})
}

// TestPlantedV2CheckpointQuarantinedWhole plants a checkpoint in the
// previous format — a version-2 manifest with an interner line, an
// interner.bin blob, and topocon-page1 pages without a views section —
// and requires Load to refuse it as ErrNoCheckpoint, move every artifact
// of it into quarantine (the interner blob included), and RunCheck to
// recompute it to the uninterrupted verdict.
func TestPlantedV2CheckpointQuarantinedWhole(t *testing.T) {
	adv := ma.LossyLink3()
	dir, opts := corruptibleCheckpoint(t)
	want, err := check.Consensus(adv, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Rewrite the manifest in the v2 layout, with a valid checksum.
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	blob := []byte("\x02\x03L\x00\x00\x03L\x00\x02")
	body := strings.Join([]string{"topocon-ckpt 2", lines[1],
		fmt.Sprintf("interner %d %08x", len(blob), crc32.ChecksumIEEE(blob)), lines[2]}, "\n") + "\n"
	manifest := body + fmt.Sprintf("crc32 %08x\n", crc32.ChecksumIEEE([]byte(body)))
	if err := os.WriteFile(manifestPath(dir), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "interner.bin"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	// Rewrite every page in the v1 page framing around its column section.
	pages := pageFiles(t, dir)
	for _, name := range pages {
		path := filepath.Join(PagesDir(dir), name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c, _ := pageSections(t, data)
		id := strings.TrimSuffix(name, ".page")
		cols := data[c[0]:c[1]]
		old := append([]byte("topocon-page1\n"), byte(len(id)))
		old = append(old, id...)
		old = binary.AppendUvarint(old, uint64(len(cols)))
		old = append(old, cols...)
		old = binary.LittleEndian.AppendUint32(old, crc32.ChecksumIEEE(old))
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := Load(dir, adv, 0); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Load of a v2 checkpoint: %v, want ErrNoCheckpoint", err)
	}
	if left := staleState(dir); len(left) != 0 {
		t.Errorf("artifacts left in place after quarantine: %v", left)
	}
	var archived []string
	filepath.Walk(filepath.Join(dir, quarantineName), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			archived = append(archived, info.Name())
		}
		return nil
	})
	if len(archived) != len(pages)+2 {
		t.Errorf("quarantine holds %v, want the manifest, interner.bin and %d pages", archived, len(pages))
	}
	got, info, err := RunCheck(context.Background(), adv, Config{Dir: dir}, opts, 1)
	if err != nil {
		t.Fatalf("recompute: %v", err)
	}
	if info.Resumed {
		t.Error("RunCheck resumed a v2 checkpoint")
	}
	if got.Verdict != want.Verdict || got.SeparationHorizon != want.SeparationHorizon || got.Exact != want.Exact {
		t.Errorf("recomputed %v sep=%d, want %v sep=%d", got.Verdict, got.SeparationHorizon, want.Verdict, want.SeparationHorizon)
	}
}
