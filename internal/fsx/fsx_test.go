package fsx

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAtomicWriteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.dat")
	if err := AtomicWrite(path, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("read back %q", got)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o644 {
		t.Fatalf("perm = %v, want 0644", st.Mode().Perm())
	}
	// Overwrite replaces atomically.
	if err := AtomicWrite(path, []byte("world"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "world" {
		t.Fatalf("after overwrite: %q", got)
	}
	// No temp droppings on the success path.
	assertNoTmp(t, dir)
}

func TestAtomicWriteFailureLeavesNoTmp(t *testing.T) {
	dir := t.TempDir()
	// Renaming over a directory fails on every platform, forcing the
	// cleanup path after the data was already written and synced.
	target := filepath.Join(dir, "taken")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWrite(target, []byte("x"), 0o644); err == nil {
		t.Fatal("expected rename failure writing over a directory")
	}
	assertNoTmp(t, dir)
}

func TestAtomicWriteMissingDir(t *testing.T) {
	if err := AtomicWrite(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), nil, 0o644); err == nil {
		t.Fatal("expected error for missing parent directory")
	}
}

func assertNoTmp(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), TmpExt) {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"bad.rec", "a", "b"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := Quarantine(dir, "bad.rec"); err != nil {
		t.Fatal(err)
	}
	// A name with a directory part groups files under one subdirectory.
	for _, name := range []string{"a", "b"} {
		if err := Quarantine(dir, filepath.Join("stamp.1", name)); err != nil {
			t.Fatal(err)
		}
	}
	for _, rel := range []string{"bad.rec", "stamp.1/a", "stamp.1/b"} {
		got, err := os.ReadFile(filepath.Join(dir, QuarantineDir, rel))
		if err != nil || string(got) != filepath.Base(rel) {
			t.Fatalf("quarantined %s = %q, %v", rel, got, err)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("dir holds %d entries after quarantine, want only %s/", len(entries), QuarantineDir)
	}
	if err := Quarantine(dir, "missing"); err == nil {
		t.Fatal("quarantining a missing file should fail")
	}
}
