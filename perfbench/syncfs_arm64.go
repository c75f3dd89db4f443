package main

// sysSyncfs is syncfs(2) on linux/arm64; the syscall package does not
// export it.
const sysSyncfs = 267
