package ckpt

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"testing"

	"topocon/internal/check"
	"topocon/internal/ma"
	"topocon/internal/pager"
)

// FuzzDecodeManifest feeds arbitrary bytes to the manifest decoder. It
// must never panic, and a manifest it accepts must round-trip: encoding
// the decoded fingerprint and snapshot and decoding that again yields the
// same manifest bytes.
func FuzzDecodeManifest(f *testing.F) {
	pg, err := pager.New(pager.Config{Dir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	adv := ma.LossyLink3()
	a, err := check.NewAnalyzer(adv, check.WithMaxHorizon(4), check.WithPager(pg))
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := a.Step(context.Background()); err != nil {
			f.Fatal(err)
		}
	}
	snap, err := a.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	meta, err := json.Marshal(snap)
	if err != nil {
		f.Fatal(err)
	}
	valid := encodeManifest(ma.Fingerprint(adv, 4), meta)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("topocon-ckpt 3\n"))
	body := fmt.Sprintf("topocon-ckpt 2\nfingerprint ab\ninterner 0 00000000\nmeta %s\n", meta)
	f.Add([]byte(body + fmt.Sprintf("crc32 %08x\n", crc32.ChecksumIEEE([]byte(body)))))
	body = "topocon-ckpt 3\nfingerprint ab\nmeta {\"comps\":1}\n"
	f.Add([]byte(body + fmt.Sprintf("crc32 %08x\n", crc32.ChecksumIEEE([]byte(body)))))

	f.Fuzz(func(t *testing.T, data []byte) {
		fp, snap, err := decodeManifest(data)
		if err != nil {
			return
		}
		meta, err := json.Marshal(snap)
		if err != nil {
			t.Fatalf("re-encoding accepted meta: %v", err)
		}
		again := encodeManifest(fp, meta)
		fp2, snap2, err := decodeManifest(again)
		if err != nil {
			t.Fatalf("re-encoded manifest does not decode: %v", err)
		}
		meta2, err := json.Marshal(snap2)
		if err != nil {
			t.Fatal(err)
		}
		if fp2 != fp || !bytes.Equal(encodeManifest(fp2, meta2), again) {
			t.Fatal("manifest changed across a round trip")
		}
	})
}
