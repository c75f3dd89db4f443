package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// Host describes the machine a result was measured on.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	CPUModel   string `json:"cpuModel"`
	StateFS    string `json:"stateFs"`
}

// Filesystem magic numbers from statfs(2).
var fsNames = map[int64]string{
	0x01021994: "tmpfs",
	0xef53:     "ext2/3/4",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x794c7630: "overlayfs",
	0x2fc12fc1: "zfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x858458f6: "ramfs",
}

// stateFS returns the filesystem type of dir. A state dir on tmpfs or ramfs
// is refused: fsync costs nothing there, so the durability cost the svc
// workloads exist to measure would be invisible.
func stateFS(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", dir, err)
	}
	name, ok := fsNames[int64(st.Type)]
	if !ok {
		name = fmt.Sprintf("0x%x", st.Type)
	}
	if name == "tmpfs" || name == "ramfs" {
		return name, fmt.Errorf("state dir %s is on %s, where fsync is free; run the benchmark from a checkout on a disk filesystem", dir, name)
	}
	return name, nil
}

func hostInfo(fs string) Host {
	return Host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		StateFS:    fs,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// syncFS flushes the filesystem holding dir (syncfs(2)), so that a
// measurement starts without writeback left over from set-up or from an
// earlier run's deleted state, which an fsync in the measured code would
// otherwise wait behind.
func syncFS(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, _, errno := syscall.Syscall(sysSyncfs, f.Fd(), 0, 0); errno != 0 {
		return fmt.Errorf("syncfs %s: %w", dir, errno)
	}
	return nil
}
